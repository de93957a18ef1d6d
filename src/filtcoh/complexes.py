"""Data model for finite, action-filtered, integer-graded cochain complexes over GF(2).

A complex carries a Maslov period ``Sigma`` (integer >= 1), a monotonicity
constant ``lambda`` (positive rational), an action period ``sigma = lambda *
Sigma``, a regular cut value ``r``, generators (id, exact rational action,
integer grade) and coboundary edges. Every generator's action must lie
strictly inside the open window ``(r, r + sigma)``; every edge must raise the
grade by ``1 + i*Sigma`` for a nonnegative integer window shift ``i``, with a
strict action drop whenever ``i = 0``; and the total coboundary must square
to zero over GF(2). The structural rules (periods, ids, edges and the grade
law) are enforced when a ``FilteredComplex`` is built; the three semantic
ones (window, action drop, delta squared) are reported by ``validate``.

File format (UTF-8 JSON, field names exact)::

    { "sigma_maslov": int, "lambda": "p/q", "r": "p/q",
      "generators": [ { "id": str, "action": "p/q", "maslov": int } ],
      "edges": [ [ "from_id", "to_id" ] ] }

Rationals are strings "p/q" or integer strings, reduced on load; the action
period sigma is derived, never stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .gf2 import BitMatrix, column_map

RationalLike = Union[Fraction, int, str]


class InputError(ValueError):
    """Bad input: a malformed file, an argument outside its range, a check
    invoked outside its hypotheses or an exhausted budget. The CLI reports
    exactly these with exit code 2; any other exception is an engine fault."""


class ComplexFormatError(InputError):
    """Structurally malformed complex/map/matching file."""


def load_json(text: str):
    """The parsed JSON document; malformed text raises ComplexFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ComplexFormatError(str(exc)) from exc


class InternalError(AssertionError):
    """A consistency check inside the engine failed: a bug, not bad input.
    Names the page k, the cell (n, j) and the generator ids involved."""

    def __init__(self, what: str, k: int, cell: tuple[int, int], ids: Iterable[str]):
        self.k, self.cell, self.ids = k, cell, tuple(ids)
        super().__init__(f"{what} (page {k}, cell (n, j) = {cell}, generators {list(self.ids)})")


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the rule name, the ids involved, and detail."""

    rule: str
    ids: tuple[str, ...]
    detail: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "ids": list(self.ids), "detail": self.detail}


@dataclass(frozen=True)
class Generator:
    id: str
    action: Fraction
    maslov: int


@dataclass(frozen=True)
class GradedPiece:
    n: int
    generators: tuple[str, ...]


@dataclass(frozen=True)
class FilteredComplex:
    """A complex whose structure is sound: building one raises
    ComplexFormatError unless Sigma >= 1, lambda > 0, the ids are distinct,
    and every edge joins known ids, is listed once and raises the grade by
    1 + i*Sigma for an integer i >= 0."""

    sigma_maslov: int
    lam: Fraction
    r: Fraction
    generators: tuple[Generator, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.sigma_maslov < 1:
            raise ComplexFormatError("sigma_maslov must be >= 1")
        if self.lam <= 0:
            raise ComplexFormatError("lambda must be positive")
        index = self._positions
        if len(index) != len(self.generators):
            seen = set()
            for g in self.generators:
                if g.id in seen:
                    raise ComplexFormatError(f"duplicate generator id {g.id!r}")
                seen.add(g.id)
        seen_edges = set()
        for k, (a, b) in enumerate(self.edges):
            for gid in (a, b):
                if gid not in index:
                    raise ComplexFormatError(f"edge #{k}: unknown id {gid!r}")
            if (a, b) in seen_edges:
                raise ComplexFormatError(f"duplicate edge ({a!r}, {b!r})")
            seen_edges.add((a, b))
            jump = self.generators[index[b]].maslov - self.generators[index[a]].maslov
            shift, rem = divmod(jump - 1, self.sigma_maslov)
            if rem != 0:
                raise ComplexFormatError(
                    f"edge ({a!r}, {b!r}): grade jump {jump} gives non-integral window shift"
                )
            if shift < 0:
                raise ComplexFormatError(
                    f"edge ({a!r}, {b!r}): grade jump {jump} gives negative window shift {shift}"
                )

    @property
    def sigma_action(self) -> Fraction:
        return self.lam * self.sigma_maslov

    def index_of(self, gid: str) -> int:
        return self._index()[gid]

    def _index(self) -> dict[str, int]:
        """Generator id -> storage position (shared; do not mutate)."""
        return self._positions

    @cached_property
    def _positions(self) -> dict[str, int]:
        # computed once per complex; not a field, so equality and hashing ignore it
        return {g.id: i for i, g in enumerate(self.generators)}

    # The bit encoding of the generators is owned here: bit i of a vector is
    # generator i in storage order. Other modules build and read vectors only
    # through columns, grade_mask, filtration_mask and support_ids.

    def support_ids(self, v: int) -> tuple[str, ...]:
        """Ids of the generators in the support of the bit vector v."""
        ids = []
        while v:
            i = (v & -v).bit_length() - 1
            v &= v - 1
            ids.append(self.generators[i].id)
        return tuple(ids)

    def grade(self, gid: str) -> int:
        return self.generators[self.index_of(gid)].maslov

    def occupied_grades(self) -> tuple[int, ...]:
        return tuple(sorted({g.maslov for g in self.generators}))

    def grade_members(self) -> dict[int, list[int]]:
        """Generator indices per occupied grade, in storage order."""
        out: dict[int, list[int]] = {}
        for i, g in enumerate(self.generators):
            out.setdefault(g.maslov, []).append(i)
        return out

    @cached_property
    def _grade_masks(self) -> dict[int, int]:
        return {n: sum(1 << i for i in members) for n, members in self.grade_members().items()}

    @cached_property
    def _filtration_masks(self) -> dict[int, int]:
        return {}

    def grade_mask(self, n: int) -> int:
        """Bit mask of the generators at grade n (0 when n is unoccupied)."""
        return self._grade_masks.get(n, 0)

    def filtration_mask(self, n: int) -> int:
        """Bit mask of F_n: grades >= n in the residue class of n (any integer n)."""
        masks = self._filtration_masks
        mask = masks.get(n)
        if mask is None:
            sig = self.sigma_maslov
            mask = masks[n] = sum(
                m for g, m in self._grade_masks.items() if g >= n and (g - n) % sig == 0
            )
        return mask

    def columns(self, pairs: Iterable[tuple[str, str]],
                target: FilteredComplex | None = None) -> list[int]:
        """Columns of the GF(2) map sending generator a to the sum of the b
        with (a, b) in ``pairs``, a pair listed twice cancelling: one column
        per generator of this complex, over the generators of ``target``
        (this complex by default)."""
        src = self._index()
        tgt = src if target is None else target._index()
        cols = [0] * len(self.generators)
        for a, b in pairs:
            cols[src[a]] ^= 1 << tgt[b]
        return cols

    def delta_columns(self) -> list[int]:
        """Total coboundary: bitmask of targets per generator index."""
        return self.columns(self.edges)

    def shift0_columns(self) -> list[int]:
        """Shift-0 part of the coboundary (the integer-graded differential)."""
        grade = {g.id: g.maslov for g in self.generators}
        return self.columns((a, b) for a, b in self.edges if grade[b] - grade[a] == 1)


def as_fraction(value: RationalLike, where: str = "value") -> Fraction:
    """Exact rational from an int, Fraction, or "p/q" / integer string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ComplexFormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ComplexFormatError(f"{where}: not a rational: {value!r}") from exc
    raise ComplexFormatError(
        f"{where}: expected a rational string, got {type(value).__name__} {value!r}"
    )


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def build_complex(
    sigma_maslov: int,
    lam: RationalLike,
    r: RationalLike,
    generators: Iterable[tuple[str, RationalLike, int]],
    edges: Iterable[tuple[str, str]] = (),
) -> FilteredComplex:
    """Construct a complex from plain data, coercing rationals.

    Raises ComplexFormatError on a structurally broken complex (see
    FilteredComplex); the semantic invariants are left to ``validate``."""
    gens = tuple(
        Generator(gid, as_fraction(action, f"action of {gid!r}"), int(maslov))
        for gid, action, maslov in generators
    )
    return FilteredComplex(
        sigma_maslov=int(sigma_maslov),
        lam=as_fraction(lam, "lambda"),
        r=as_fraction(r, "r"),
        generators=gens,
        edges=tuple((str(a), str(b)) for a, b in edges),
    )


_TOP_FIELDS = {"sigma_maslov", "lambda", "r", "generators", "edges"}
_GEN_FIELDS = {"id", "action", "maslov"}


def parse_complex(text: str) -> FilteredComplex:
    """Parse a complex file.

    Raises ComplexFormatError on malformed syntax, wrong fields or types and
    non-rational numerics, and, when the complex is built, on a broken
    structure (see FilteredComplex). Semantic invariants (action window,
    action monotonicity, delta squared) are reported by ``validate``, not
    here.
    """
    data = load_json(text)
    if not isinstance(data, dict):
        raise ComplexFormatError("top level must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ComplexFormatError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(data)
    if missing:
        raise ComplexFormatError(f"missing top-level fields: {sorted(missing)}")
    if not isinstance(data["sigma_maslov"], int) or isinstance(data["sigma_maslov"], bool):
        raise ComplexFormatError("sigma_maslov must be an integer")
    lam = as_fraction(data["lambda"], "lambda")
    r = as_fraction(data["r"], "r")
    if not isinstance(data["generators"], list):
        raise ComplexFormatError("generators must be a list")
    gens = []
    for k, item in enumerate(data["generators"]):
        if not isinstance(item, dict):
            raise ComplexFormatError(f"generator #{k} must be an object")
        if set(item) != _GEN_FIELDS:
            raise ComplexFormatError(f"generator #{k} must have exactly fields id, action, maslov")
        gid = item["id"]
        if not isinstance(gid, str) or not gid:
            raise ComplexFormatError(f"generator #{k}: id must be a nonempty string")
        if not isinstance(item["maslov"], int) or isinstance(item["maslov"], bool):
            raise ComplexFormatError(f"generator {gid!r}: maslov must be an integer")
        gens.append(Generator(gid, as_fraction(item["action"], f"action of {gid!r}"), item["maslov"]))
    if not isinstance(data["edges"], list):
        raise ComplexFormatError("edges must be a list")
    for k, item in enumerate(data["edges"]):
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise ComplexFormatError(f"edge #{k} must be a pair of id strings")
    edges = tuple((a, b) for a, b in data["edges"])
    return FilteredComplex(data["sigma_maslov"], lam, r, tuple(gens), edges)


def serialize_complex(c: FilteredComplex) -> str:
    data = {
        "sigma_maslov": c.sigma_maslov,
        "lambda": format_fraction(c.lam),
        "r": format_fraction(c.r),
        "generators": [
            {"id": g.id, "action": format_fraction(g.action), "maslov": g.maslov}
            for g in c.generators
        ],
        "edges": [[a, b] for a, b in c.edges],
    }
    return json.dumps(data, indent=2) + "\n"


def validate(c: FilteredComplex) -> list[Violation]:
    """The semantic invariants; empty list iff the complex is valid. The
    structural rules were enforced when the complex was built.

    Violations are data, not failures: each names the broken rule and the
    offending ids.
    """
    out: list[Violation] = []
    top = c.r + c.sigma_action
    for g in c.generators:
        if not (c.r < g.action < top):
            out.append(
                Violation(
                    "action-window",
                    (g.id,),
                    f"action {g.action} outside the open window ({c.r}, {top})",
                )
            )

    index = c._index()
    for a, b in c.edges:
        ga, gb = c.generators[index[a]], c.generators[index[b]]
        if gb.maslov - ga.maslov == 1 and not (ga.action > gb.action):
            out.append(
                Violation(
                    "action-monotone",
                    (a, b),
                    f"shift-0 edge must drop the action: a({a}) = {ga.action} "
                    f"<= a({b}) = {gb.action}",
                )
            )

    ids = [g.id for g in c.generators]
    cols = c.delta_columns()
    apply_delta = column_map(cols)
    for i, col in enumerate(cols):
        acc = apply_delta(col)
        if acc:
            targets = c.support_ids(acc)
            out.append(
                Violation(
                    "delta-squared",
                    (ids[i],) + targets,
                    f"delta(delta({ids[i]!r})) has odd two-trajectory parity into "
                    + ", ".join(repr(t) for t in targets),
                )
            )
    return out


def warnings(c: FilteredComplex) -> list[str]:
    """Out-of-theory flags that are accepted by the data model."""
    out = []
    if 1 <= c.sigma_maslov <= 2:
        out.append(
            f"sigma_maslov = {c.sigma_maslov}: the theory behind this engine needs the "
            "Maslov period >= 3; results are formal bookkeeping only"
        )
    return out


def associated_graded(c: FilteredComplex) -> list[tuple[int, GradedPiece, BitMatrix]]:
    """Per occupied grade n: the piece at n and the shift-0 matrix into n+1.

    Discarding all shift >= 1 edges is exactly the passage to the quotient
    F_n / F_{n+Sigma}.
    """
    members = c.grade_members()
    ids = [g.id for g in c.generators]
    shift0 = c.shift0_columns()
    out = []
    for n in c.occupied_grades():
        src = members[n]
        # the shift-0 images of the generators at n lie at grade n + 1
        dst_pos = {gi: k for k, gi in enumerate(members.get(n + 1, []))}
        columns = []
        for gi in src:
            v, col = shift0[gi], 0
            while v:
                low = v & -v
                col |= 1 << dst_pos[low.bit_length() - 1]
                v ^= low
            columns.append(col)
        piece = GradedPiece(n, tuple(ids[i] for i in src))
        out.append((n, piece, BitMatrix.from_columns(len(dst_pos), columns)))
    return out


def shift_complex(c: FilteredComplex, steps: int = 1) -> FilteredComplex:
    """Relabel through ``steps`` deck transformations: r += steps*sigma,
    every action += steps*sigma, every grade += steps*Sigma.

    The underlying complex is unchanged, so I^(r+sigma)_{n+Sigma} = I^(r)_n.
    """
    sigma = c.sigma_action
    gens = tuple(
        Generator(g.id, g.action + steps * sigma, g.maslov + steps * c.sigma_maslov)
        for g in c.generators
    )
    return FilteredComplex(c.sigma_maslov, c.lam, c.r + steps * sigma, gens, c.edges)


def relabel_complex(c: FilteredComplex, mapping: dict[str, str]) -> FilteredComplex:
    """Rename generators through an id mapping; one that merges two ids
    raises ComplexFormatError when the renamed complex is built."""
    gens = tuple(Generator(mapping[g.id], g.action, g.maslov) for g in c.generators)
    edges = tuple((mapping[a], mapping[b]) for a, b in c.edges)
    return FilteredComplex(c.sigma_maslov, c.lam, c.r, gens, edges)
