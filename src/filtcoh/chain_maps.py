"""Filtered cochain maps and homotopies between complexes, as verifiable
inputs: the analytic continuation data that would produce such maps is out
of scope, so this module only certifies the algebraic conclusions: the
cochain-map equation, the homotopy identity, and induced isomorphisms on
cohomology pages."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .complexes import ComplexFormatError, FilteredComplex, InputError, InternalError, Violation, load_json
from .gf2 import column_map, coset_matrix
from .spectral import _Pages

__all__ = [
    "FilteredMap",
    "parse_map",
    "verify_cochain_map",
    "verify_homotopy",
    "induced_page_map",
    "iso_on_pages",
    "compose",
    "map_sum",
    "identity_map",
]


@dataclass(frozen=True)
class FilteredMap:
    """GF(2)-linear map given by generator pairs.

    ``degree`` is the mod-Sigma degree: 0 for cochain maps, -1 for
    homotopies. Every entry must shift the grade by degree + s*Sigma with
    s >= 0 (filtration preserving).
    """

    source: FilteredComplex
    target: FilteredComplex
    entries: tuple[tuple[str, str], ...]
    degree: int = 0

    def matrix_columns(self) -> list[int]:
        return self.source.columns(self.entries, self.target)

    @cached_property
    def apply(self):
        """The map as a function on bit vectors, built once per map."""
        return column_map(self.matrix_columns())


def identity_map(c: FilteredComplex) -> FilteredMap:
    return FilteredMap(c, c, tuple((g.id, g.id) for g in c.generators))


def delta_map(c: FilteredComplex) -> FilteredMap:
    """The total coboundary of ``c`` packaged as a degree +1 map."""
    return FilteredMap(c, c, c.edges, degree=1)


def parse_map(text: str, source: FilteredComplex, target: FilteredComplex,
              degree: int = 0) -> FilteredMap:
    """Map file: { "entries": [ ["src_id", "dst_id"] ] }."""
    data = load_json(text)
    if not isinstance(data, dict) or set(data) != {"entries"}:
        raise ComplexFormatError('map file must be {"entries": [...]}')
    if not isinstance(data["entries"], list):
        raise ComplexFormatError("entries must be a list")
    entries = []
    for k, item in enumerate(data["entries"]):
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise ComplexFormatError(f"map entry #{k} must be a pair of id strings")
        entries.append((item[0], item[1]))
    return FilteredMap(source, target, tuple(entries), degree)


def _structural_violations(f: FilteredMap) -> list[Violation]:
    out: list[Violation] = []
    if f.source.sigma_maslov != f.target.sigma_maslov:
        out.append(
            Violation(
                "map-period",
                (),
                f"source and target Maslov periods differ "
                f"({f.source.sigma_maslov} vs {f.target.sigma_maslov})",
            )
        )
        return out
    sig = f.source.sigma_maslov
    src_idx = f.source._index()
    tgt_idx = f.target._index()
    seen = set()
    for a, b in f.entries:
        if a not in src_idx or b not in tgt_idx:
            out.append(Violation("map-ids", (a, b), "entry references an unknown id"))
            continue
        if (a, b) in seen:
            out.append(Violation("map-duplicate", (a, b), "entry listed twice"))
            continue
        seen.add((a, b))
        jump = f.target.generators[tgt_idx[b]].maslov - f.source.generators[src_idx[a]].maslov
        s, rem = divmod(jump - f.degree, sig)
        if rem != 0:
            out.append(
                Violation(
                    "map-degree",
                    (a, b),
                    f"grade shift {jump} is not degree {f.degree} mod Sigma",
                )
            )
        elif s < 0:
            out.append(
                Violation(
                    "map-filtration",
                    (a, b),
                    f"grade shift {jump} drops the filtration (shift {s} < 0)",
                )
            )
    return out


def verify_cochain_map(f: FilteredMap) -> list[Violation]:
    """Empty iff f is a filtration-preserving degree-0 map commuting with
    the total coboundaries, reported grade by grade."""
    out = _structural_violations(f)
    if f.degree != 0:
        out.append(Violation("map-degree", (), f"cochain map must have degree 0, got {f.degree}"))
    if out:
        return out
    fcols = f.matrix_columns()
    dsrc = f.source.delta_columns()
    apply_dtgt = column_map(f.target.delta_columns())
    bad_grades = []
    for i, g in enumerate(f.source.generators):
        lhs = f.apply(dsrc[i])
        rhs = apply_dtgt(fcols[i])
        if lhs != rhs:
            bad_grades.append((g.maslov, g.id))
    for n, gid in sorted(bad_grades):
        out.append(
            Violation(
                "cochain-commute",
                (gid,),
                f"delta f != f delta on generator {gid!r} at grade {n}",
            )
        )
    return out


def verify_homotopy(f: FilteredMap, g: FilteredMap, h: FilteredMap) -> list[Violation]:
    """Empty iff f - g = H delta + delta H over GF(2) in every grade, with H
    a filtration-compatible map of mod-Sigma degree -1."""
    out: list[Violation] = []
    if f.source != g.source or f.target != g.target:
        out.append(Violation("homotopy-ends", (), "f and g must share source and target"))
    if h.source != f.source or h.target != f.target:
        out.append(Violation("homotopy-ends", (), "H must connect the same complexes as f and g"))
    if out:
        return out
    if h.degree != -1:
        out.append(Violation("homotopy-degree", (), f"H must have degree -1, got {h.degree}"))
    out.extend(_structural_violations(f))
    out.extend(_structural_violations(g))
    out.extend(_structural_violations(h))
    if out:
        return out
    fc, gc, hc = f.matrix_columns(), g.matrix_columns(), h.matrix_columns()
    dsrc = f.source.delta_columns()
    apply_dtgt = column_map(f.target.delta_columns())
    failing = []
    for i, gen in enumerate(f.source.generators):
        lhs = fc[i] ^ gc[i]
        rhs = h.apply(dsrc[i]) ^ apply_dtgt(hc[i])
        if lhs != rhs:
            failing.append((gen.maslov, gen.id))
    if failing:
        n, gid = min(failing)
        out.append(
            Violation(
                "homotopy-identity",
                tuple(gid for _, gid in sorted(failing)),
                f"f + g + H delta + delta H is nonzero, first failing grade {n}",
            )
        )
    return out


@dataclass(frozen=True)
class PageMapReport:
    k: int
    matrices: dict
    iso: bool


def induced_page_map(f: FilteredMap, k: int) -> PageMapReport:
    """Matrices of a verified cochain map on the stage-k page cells, plus a
    flag that is True iff the map is bijective on every cell."""
    problems = verify_cochain_map(f)
    if problems:
        raise InputError("not a cochain map: " + "; ".join(v.rule for v in problems))
    return _induced_on_states(f, k, _Pages(f.source).state(k), _Pages(f.target).state(k))


def iso_on_pages(f: FilteredMap) -> dict[int, bool]:
    """k -> whether the cochain map f, already verified, is bijective on
    every cell of E^k, for k up to the larger stabilization bound. Page k is
    read at the later of the two ends' stages, so that both present it at
    one literal stage; equal ends share one page sequence."""
    src = _Pages(f.source)
    tgt = src if f.target == f.source else _Pages(f.target)
    bound = max(src.eng.bound, tgt.eng.bound)

    @cache
    def iso_at(s: int) -> bool:
        return _induced_on_states(f, s, src.state(s), tgt.state(s)).iso

    return {k: iso_at(max(src.stage(k), tgt.stage(k))) for k in range(1, bound + 1)}


def _induced_on_states(f: FilteredMap, k: int, src_state, tgt_state) -> PageMapReport:
    """The map on the page cells presented by two stage-k states; every
    occupied grade of a complex has an entry in its states' reps."""
    sig = f.source.sigma_maslov
    matrices = {}
    for n in sorted(set(src_state.reps) | set(tgt_state.reps)):
        src_reps = src_state.reps.get(n, ())
        tgt_reps = tgt_state.reps.get(n, ())
        if not src_reps and not tgt_reps:
            continue

        def escaped(v: int) -> None:
            raise InternalError(
                "image of a page class escaped the target cell", k, (n, n % sig), f.source.support_ids(v)
            )

        matrices[(n, n % sig)] = coset_matrix(f.apply, src_reps, tgt_reps, tgt_state.denom.get(n), escaped)
    iso = all(m.rows == m.cols and m.rank() == m.rows for m in matrices.values())
    return PageMapReport(k, matrices, iso)


def compose(second: FilteredMap, first: FilteredMap) -> FilteredMap:
    """second after first, as an entries list (mod-2 accumulated)."""
    if first.target != second.source:
        raise InputError("composition mismatch: first.target != second.source")
    entries = tuple(
        (g.id, t)
        for g, col in zip(first.source.generators, first.matrix_columns())
        for t in second.target.support_ids(second.apply(col))
    )
    return FilteredMap(
        first.source, second.target, entries, first.degree + second.degree
    )


def map_sum(f: FilteredMap, g: FilteredMap) -> FilteredMap:
    """f + g over GF(2) as an entries list."""
    if f.source != g.source or f.target != g.target or f.degree != g.degree:
        raise InputError("summands must share source, target, and degree")
    entries = tuple(
        (gen.id, t)
        for gen, a, b in zip(f.source.generators, f.matrix_columns(), g.matrix_columns())
        for t in f.target.support_ids(a ^ b)
    )
    return FilteredMap(f.source, f.target, entries, f.degree)
