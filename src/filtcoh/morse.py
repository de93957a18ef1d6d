"""Ground-truth fixture generators: the perfect Morse model of a torus in
the small-isotopy regime, and "quantum-perturbed" variants with prescribed
higher-shift edges that kill the total cohomology while leaving page one
intact."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .complexes import (
    ComplexFormatError,
    FilteredComplex,
    Generator,
    as_fraction,
    validate,
)

__all__ = ["TorusSpec", "torus_complex", "quantum_perturbed_torus", "subset_id"]


def subset_id(subset: Iterable[int], m: int) -> str:
    """Canonical generator id for a subset of {1..m}: 'x' + membership bits."""
    chosen = set(subset)
    span = range(1, m + 1)
    if not all(i in span for i in chosen):
        raise ComplexFormatError(f"subset {sorted(chosen)} not contained in 1..{m}")
    return "x" + "".join("1" if i in chosen else "0" for i in span)


def _default_jitter(r: Fraction, sigma: Fraction, count: int) -> tuple[Fraction, ...]:
    return tuple(r + sigma * Fraction(i + 1, count + 1) for i in range(count))


@dataclass(frozen=True)
class TorusSpec:
    """Parameters for the m-torus Morse fixture; jitters default to evenly
    spaced rationals strictly inside the action window."""

    m: int
    lam: Fraction = Fraction(1, 2)
    sigma_maslov: int = 2
    r: Fraction = Fraction(0)
    action_jitter: Optional[tuple[Fraction, ...]] = None

    def jitters(self) -> tuple[Fraction, ...]:
        count = 1 << self.m
        if self.action_jitter is None:
            return _default_jitter(self.r, self.lam * self.sigma_maslov, count)
        return tuple(as_fraction(x, "action jitter") for x in self.action_jitter)

    def check(self) -> tuple[Fraction, ...]:
        """Raise ComplexFormatError on a bad spec; return its jitters."""
        if self.m < 0:
            raise ComplexFormatError("torus dimension must be >= 0")
        if self.sigma_maslov < 2 or self.sigma_maslov % 2 != 0:
            raise ComplexFormatError("sigma_maslov must be a positive even integer")
        if self.lam <= 0:
            raise ComplexFormatError("lambda must be positive")
        jit = self.jitters()
        if len(jit) != 1 << self.m:
            raise ComplexFormatError(f"need exactly 2^{self.m} action jitters")
        if len(set(jit)) != len(jit):
            raise ComplexFormatError("action jitters must be distinct")
        top = self.r + self.lam * self.sigma_maslov
        for a in jit:
            if not (self.r < a < top):
                raise ComplexFormatError(f"jitter {a} outside the window ({self.r}, {top})")
        return jit


def _subsets(m: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1 << m):
        out.append(tuple(i + 1 for i in range(m) if (mask >> i) & 1))
    return out


def torus_complex(spec: TorusSpec) -> FilteredComplex:
    """Perfect Morse model of T^m: generators are the subsets of {1..m} at
    grade |S| - m, no edges. The Morse differential of the standard product
    Morse function vanishes over GF(2)."""
    m = spec.m
    gens = tuple(Generator(subset_id(s, m), a, len(s) - m) for s, a in zip(_subsets(m), spec.check()))
    return FilteredComplex(spec.sigma_maslov, spec.lam, spec.r, gens, ())


@dataclass(frozen=True)
class QuantumEdge:
    source: tuple[int, ...]
    target: tuple[int, ...]
    shift: int


def _regrade(spec: TorusSpec, edges: Sequence[QuantumEdge]) -> dict[str, int]:
    """Grades making every requested edge jump exactly 1 + shift*Sigma.

    Constraints are propagated over each connected component of the edge
    graph from its lexicographically smallest member, anchored at the Morse
    grade |S| - m; inconsistent cycles are errors. Components touched by
    edges are then chained in order, each translated so its lowest grade
    continues at the previous component's highest grade: a perfect matching
    therefore presents overlapping grade pairs rather than disjoint ones.
    """
    m, sig = spec.m, spec.sigma_maslov
    base = {subset_id(s, m): len(s) - m for s in _subsets(m)}
    adj: dict[str, list[tuple[str, int]]] = {}
    for e in edges:
        a, b = subset_id(e.source, m), subset_id(e.target, m)
        if a == b:
            raise ComplexFormatError(f"edge {a!r} -> {b!r} is a self-loop")
        if e.shift < 0:
            raise ComplexFormatError(f"edge {a!r} -> {b!r}: negative shift {e.shift}")
        jump = 1 + e.shift * sig
        adj.setdefault(a, []).append((b, jump))
        adj.setdefault(b, []).append((a, -jump))

    grades = dict(base)
    prev_max: Optional[int] = None
    visited: set[str] = set()
    for anchor in sorted(adj):
        if anchor in visited:
            continue
        # iterating ids in sorted order makes the first unvisited node the
        # lexicographically smallest member of its component
        rel = {anchor: 0}
        q = [anchor]
        while q:
            cur = q.pop()
            for nxt, jump in adj[cur]:
                want = rel[cur] + jump
                if nxt in rel:
                    if rel[nxt] != want:
                        raise ComplexFormatError(
                            f"edge constraints around {nxt!r} are inconsistent "
                            f"({rel[nxt]} vs {want})"
                        )
                else:
                    rel[nxt] = want
                    q.append(nxt)
        visited |= set(rel)
        offset = base[anchor]
        lo = min(rel.values()) + offset
        hi = max(rel.values()) + offset
        if prev_max is not None:
            bump = prev_max - lo
            offset += bump
            hi += bump
        for node, rl in rel.items():
            grades[node] = rl + offset
        prev_max = hi
    return grades


def quantum_perturbed_torus(
    spec: TorusSpec, matching: Sequence[QuantumEdge]
) -> FilteredComplex:
    """Torus fixture with prescribed shift-i edges standing in for the disk
    counts; when the matching is perfect the total cohomology vanishes and
    the page sequence stabilizes exactly at 1 + max shift.

    Raises if the requested edges cannot satisfy the shift law or break
    delta squared = 0; nothing is emitted in that case.
    """
    if not matching:
        return torus_complex(spec)
    jit = sorted(spec.check(), reverse=True)
    grades = _regrade(spec, matching)
    m = spec.m
    order = sorted(grades, key=lambda gid: (grades[gid], gid))
    actions = {gid: jit[k] for k, gid in enumerate(order)}
    gens = tuple(Generator(gid, actions[gid], grades[gid]) for gid in grades)
    edges = tuple(
        (subset_id(e.source, m), subset_id(e.target, m)) for e in matching
    )
    if len(set(edges)) != len(edges):
        raise ComplexFormatError("duplicate quantum edge")
    out = FilteredComplex(spec.sigma_maslov, spec.lam, spec.r, gens, edges)
    problems = validate(out)
    if problems:
        raise ComplexFormatError(
            "quantum matching breaks the complex invariants: "
            + "; ".join(f"{v.rule} {v.ids}" for v in problems)
        )
    return out


def parse_matching(data: dict, m: int) -> list[QuantumEdge]:
    """Matching file: {"matching": [{"from": [ints], "to": [ints], "shift": int}]}."""
    if not isinstance(data, dict) or set(data) != {"matching"}:
        raise ComplexFormatError('matching file must be {"matching": [...]}')
    if not isinstance(data["matching"], list):
        raise ComplexFormatError("matching must be a list")
    out = []
    for k, item in enumerate(data["matching"]):
        if not isinstance(item, dict) or set(item) != {"from", "to", "shift"}:
            raise ComplexFormatError(f"matching entry #{k} must have fields from, to, shift")
        src, dst, shift = item["from"], item["to"], item["shift"]
        for name, val in (("from", src), ("to", dst)):
            if not (isinstance(val, list) and all(isinstance(x, int) for x in val)):
                raise ComplexFormatError(f"matching entry #{k}: {name} must be a list of ints")
        if not isinstance(shift, int) or isinstance(shift, bool) or shift < 0:
            raise ComplexFormatError(f"matching entry #{k}: shift must be an integer >= 0")
        out.append(QuantumEdge(tuple(src), tuple(dst), shift))
    return out
