"""Cohomology of a filtered complex: the integer-graded theory of the
shift-0 differential, the Z_Sigma-graded theory of the total coboundary,
and the action filtration it induces on the latter."""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FilteredComplex
from .gf2 import Subspace, column_map, image, preimage, subquotient

__all__ = [
    "GradedDims",
    "HFFiltration",
    "integer_graded_cohomology",
    "zsigma_cohomology",
    "hf_filtration",
]


@dataclass(frozen=True)
class GradedDims:
    """Dimension table grade -> dim (zero grades omitted) with, per grade,
    basis representatives given as tuples of generator ids (mod-2 supports)."""

    dims: tuple[tuple[int, int], ...]
    representatives: tuple[tuple[int, tuple[tuple[str, ...], ...]], ...]

    def dim(self, n: int) -> int:
        return dict(self.dims).get(n, 0)

    def as_dict(self) -> dict:
        return {
            "dims": [list(t) for t in self.dims],
            "representatives": [[n, [list(r) for r in reps]] for n, reps in self.representatives],
        }

    def total(self) -> int:
        return sum(d for _, d in self.dims)


def _graded_dims(c: FilteredComplex, table: dict[int, tuple[int, ...]]) -> GradedDims:
    dims = []
    reps = []
    for n in sorted(table):
        vecs = table[n]
        if not vecs:
            continue
        dims.append((n, len(vecs)))
        reps.append((n, tuple(c.support_ids(v) for v in vecs)))
    return GradedDims(tuple(dims), tuple(reps))


def _kernel_image(c: FilteredComplex, apply, dom_mask: int, prev_mask: int):
    """(kernel of the linear map ``apply`` on the span of the generators in
    dom_mask, image of the span of those in prev_mask)."""
    n_amb = len(c.generators)
    ker = preimage(apply, Subspace.coordinate(n_amb, dom_mask), Subspace.zero(n_amb))
    return ker, image(apply, Subspace.coordinate(n_amb, prev_mask), n_amb)


def integer_graded_cohomology(c: FilteredComplex) -> GradedDims:
    """Cohomology of the shift-0 differential, grade by grade."""
    apply = column_map(c.shift0_columns())
    table: dict[int, tuple[int, ...]] = {}
    for n in c.occupied_grades():
        ker, img = _kernel_image(c, apply, c.grade_mask(n), c.grade_mask(n - 1))
        _, reps = subquotient(ker, img)
        table[n] = reps
    return _graded_dims(c, table)


def _class_cocycles(c: FilteredComplex):
    """Per occupied residue class j: (j, cocycles of class j, coboundaries
    from class j - 1) of the total coboundary. A class is the level F_n of
    any n of that class at or below the lowest grade."""
    grades = c.occupied_grades()
    if not grades:
        return
    sig = c.sigma_maslov
    apply = column_map(c.delta_columns())
    for j in range(sig):
        n = grades[0] - (grades[0] - j) % sig
        dom = c.filtration_mask(n)
        if dom:
            ker, img = _kernel_image(c, apply, dom, c.filtration_mask(n - 1))
            yield j, ker, img


def zsigma_cohomology(c: FilteredComplex) -> GradedDims:
    """Cohomology of the total coboundary, graded by residue class mod Sigma."""
    table: dict[int, tuple[int, ...]] = {}
    for j, ker, img in _class_cocycles(c):
        _, reps = subquotient(ker, img)
        table[j] = reps
    return _graded_dims(c, table)


@dataclass(frozen=True)
class HFFiltration:
    """Per residue class j: the weakly decreasing chain n -> dim F_n HF^j
    over the occupied grades n = j (mod Sigma), listed by increasing n.
    Above the top grade the chain is 0; at and below the bottom grade it
    equals dim HF^j."""

    sigma_maslov: int
    chains: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def chain(self, j: int) -> tuple[tuple[int, int], ...]:
        return dict(self.chains).get(j, ())

    def level_dim(self, j: int, n: int) -> int:
        # chains are weakly decreasing in n, so the value at an arbitrary n
        # is the entry at the least occupied level >= n (0 above the top).
        for m, d in self.chain(j):
            if m >= n:
                return d
        return 0

    def as_dict(self) -> dict:
        return {"filtration": [[j, [list(t) for t in chain]] for j, chain in self.chains]}


def hf_filtration(c: FilteredComplex) -> HFFiltration:
    """dim of im(H(F_n C_j) -> HF^j) for every occupied level n of class j."""
    sig = c.sigma_maslov
    chains = []
    for j, ker, img in _class_cocycles(c):
        chain = []
        for n in (n for n in c.occupied_grades() if n % sig == j):
            ker_n = ker.within(c.filtration_mask(n))
            img_n = img.intersection(ker_n)
            chain.append((n, ker_n.dim - img_n.dim))
        chains.append((j, tuple(chain)))
    return HFFiltration(sig, tuple(chains))
