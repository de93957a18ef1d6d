"""Spectral sequence of the action filtration.

The filtration of the Z_Sigma-graded complex by grade levels F_n (grades
>= n within the residue class of n) is bounded, and its pages are computed
two independent ways:

* ``page`` runs the recursion: E^1 is the cohomology of the associated
  graded, and E^{k+1} = H(E^k, d^k) is computed literally as kernels modulo
  images of the induced differential matrices. Each page cell keeps coset
  representatives that are "deep": delta of a stage-k representative lands
  in F_{n + k*Sigma + 1}, which is what makes d^k computable on
  representatives; after each homology step the new representatives are
  repaired back into deep position by a correction drawn from the
  denominator.

* ``page_oracle`` evaluates the closed subquotient description directly:

      Z^k(n) = { x in F_n : delta x in F_{n + k*Sigma + 1} }
      E^k(n) = Z^k(n) / ( Z^{k-1}(n + Sigma) + delta Z^{k-1}(n - (k-1)*Sigma - 1) )

  using only the GF(2) core, with no recursion between pages.

The differential d^k raises the integer grade by k*Sigma + 1 and the residue
class by 1. Pages are reported per cell (n, j) with n = j (mod Sigma); cells
at unoccupied grades are zero and omitted.

One page sequence, ``_Pages``, runs the recursion for every reader, only as
far as the reader asks. ``page``, ``differential``, ``einfty`` and
``chain_maps.induced_page_map`` expose representatives and denominators,
which keep changing on stable pages, so they read the literal stage-k state.
Readers of dimensions and ranks (``k_stable``, ``page_rows``,
``oracle_comparison``, ``check_page_recursion``, ``rank_balance``,
``iso_on_pages``) stop at the first page E^s (s >= 1) with no two nonzero
cells k'*Sigma + 1 apart for any k' >= s: d^s and every later differential
vanish for degree reasons, so each later page is a copy of E^s with d^k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import FilteredComplex, InternalError
from .gf2 import BitMatrix, Echelon, Subspace, column_map, coset_solver, preimage, subquotient

__all__ = [
    "Page",
    "PageCell",
    "page",
    "differential",
    "k_stable",
    "einfty",
    "page_oracle",
    "stabilization_bound",
    "pages_tsv",
    "page_rows",
    "oracle_comparison",
]


@dataclass(frozen=True)
class PageCell:
    n: int
    j: int
    dim: int
    reps: tuple[int, ...]
    denominator: Subspace


class Page:
    """One page: cells (n, j) with dimensions and reduced coset bases."""

    def __init__(self, k: int, sigma_maslov: int, cells: dict[tuple[int, int], PageCell]):
        self.k = k
        self.sigma_maslov = sigma_maslov
        self.cells = cells

    def dims(self) -> dict[tuple[int, int], int]:
        return {key: cell.dim for key, cell in self.cells.items() if cell.dim > 0}

    def __repr__(self):
        return f"Page(k={self.k}, dims={self.dims()})"


class _Engine:
    """Shared filtration plumbing for both page computations.

    Every level F_n is a coordinate subspace, so reducing modulo F_n and
    intersecting with it go through its bit mask, ``c.filtration_mask(n)``:
    x mod F_n is x & ~mask.
    """

    def __init__(self, c: FilteredComplex):
        self.c = c
        self.sig = c.sigma_maslov
        self.n_amb = len(c.generators)
        self.apply_delta = column_map(c.delta_columns())
        self.grades = c.occupied_grades()
        self._f_cache: dict[int, Subspace] = {}
        self._fimg_cache: dict[int, Subspace] = {}
        self._z_cache: dict[tuple[int, int], Subspace] = {}
        self._oracle_cache: dict[tuple[int, int], tuple[Subspace, Subspace]] = {}

    def filtration(self, n: int) -> Subspace:
        """F_n as a subspace of the ambient space."""
        cached = self._f_cache.get(n)
        if cached is not None:
            return cached
        sub = Subspace.coordinate(self.n_amb, self.c.filtration_mask(n))
        self._f_cache[n] = sub
        return sub

    def delta_filtration_image(self, n: int) -> Subspace:
        """delta(F_n) as a subspace of the ambient space."""
        cached = self._fimg_cache.get(n)
        if cached is not None:
            return cached
        sub = Subspace.from_vectors(
            self.n_amb, [self.apply_delta(b) for b in self.filtration(n).basis]
        )
        self._fimg_cache[n] = sub
        return sub

    def cocycles(self, n: int, depth: int) -> Subspace:
        """Z-space { x in F_n : delta x in F_{n + depth} }."""
        cached = self._z_cache.get((n, depth))
        if cached is not None:
            return cached
        outside = ~self.c.filtration_mask(n + depth)
        apply_delta = self.apply_delta
        sub = preimage(
            lambda x: apply_delta(x) & outside, self.filtration(n), Subspace.zero(self.n_amb)
        )
        self._z_cache[(n, depth)] = sub
        return sub

    def boundary_part(self, source: int, target: int) -> Subspace:
        """delta(F_source) restricted to F_target.

        Equals delta of { x in F_source : delta x in F_target }, because a
        boundary that lies in F_target certifies its own preimage condition.
        """
        return self.delta_filtration_image(source).within(self.c.filtration_mask(target))


def stabilization_bound(c: FilteredComplex) -> int:
    """Least k >= 1 with k*Sigma + 1 > (grade span): all later differentials
    vanish for degree reasons, so page k is the limit page."""
    grades = c.occupied_grades()
    if not grades:
        return 1
    span = grades[-1] - grades[0]
    k = 1
    while k * c.sigma_maslov + 1 <= span:
        k += 1
    return k


# -- recursion path ----------------------------------------------------------


class _State:
    """Stage-s presentation of one residue column of cells.

    reps[n]: deep coset representatives of E^s at grade n;
    denom[n]: the stage-s denominator subspace D^s(n). Together
    span(reps[n]) + denom[n] is the stage-s cocycle space Z^s(n).
    """

    def __init__(self, s: int, reps: dict[int, tuple[int, ...]], denom: dict[int, Subspace]):
        self.s = s
        self.reps = reps
        self.denom = denom
        self.matrices: dict[int, BitMatrix] | None = None  # d^s, filled on first use

    def dims(self) -> dict[int, int]:
        return {n: len(r) for n, r in self.reps.items() if r}


def _initial_state(eng: _Engine) -> _State:
    reps = {n: Subspace.coordinate(eng.n_amb, eng.c.grade_mask(n)).basis for n in eng.grades}
    denom = {n: eng.filtration(n + eng.sig) for n in eng.grades}
    return _State(0, reps, denom)


def _cell_echelon(eng: _Engine, state: _State, n: int) -> Echelon:
    """Builder holding Z^s(n) for any integer n, from the state when occupied."""
    if n in state.reps:
        ech = Echelon.of(state.denom[n])
        for v in state.reps[n]:
            ech.add(v)
        return ech
    return Echelon.of(eng.cocycles(n, state.s * eng.sig + 1))


def _differential_matrices(eng: _Engine, state: _State) -> dict[int, BitMatrix]:
    """Matrix of d^s out of each occupied cell, in coset-basis coordinates."""
    if state.matrices is not None:
        return state.matrices
    deg = state.s * eng.sig + 1
    out: dict[int, BitMatrix] = {}
    for n in eng.grades:
        src = state.reps[n]
        tgt = state.reps.get(n + deg, ())
        if not src:
            out[n] = BitMatrix.zeros(len(tgt), 0)
            continue
        if not tgt:
            out[n] = BitMatrix.zeros(0, len(src))
            continue
        coords = coset_solver(tgt, state.denom[n + deg])
        columns = []
        for v in src:
            sol = coords.solve(eng.apply_delta(v))
            if sol is None:
                raise InternalError(
                    f"d^{state.s} escaped the target cell {(n + deg, (n + deg) % eng.sig)}; "
                    "page recursion is inconsistent",
                    state.s, (n, n % eng.sig), eng.c.support_ids(v),
                )
            columns.append(sol)
        out[n] = BitMatrix.from_columns(len(tgt), columns)
    state.matrices = out
    return out


def _repairer(eng: _Engine, denom: Subspace, k: int, n: int):
    """Function correcting a stage-k representative v of cell n by a
    denominator element so that delta(v) lands in F_{n + k*Sigma + 1}. Each
    denominator basis vector b is inserted as delta(b) mod that level tagged
    b, so a solution's tag is the correction."""
    outside = ~eng.c.filtration_mask(n + k * eng.sig + 1)
    apply_delta = eng.apply_delta
    solver = None

    def repair(v: int) -> int:
        nonlocal solver
        w = apply_delta(v) & outside
        if w == 0:
            return v
        if solver is None:
            solver = Echelon(eng.n_amb, track=True)
            for b in denom.basis:
                solver.relate(apply_delta(b) & outside, b)
        fix = solver.solve(w)
        if fix is None:
            raise InternalError(
                "no deep representative exists; page recursion is inconsistent",
                k, (n, n % eng.sig), eng.c.support_ids(v),
            )
        return v ^ fix

    return repair


def _advance(eng: _Engine, state: _State) -> _State:
    """One homology step: state at stage s -> stage s+1.

    Kernel classes of d^s are lifted to vectors, repaired into deep position
    (a kernel representative z has delta z only in the stage-s boundary part
    of the target cell, and subtracting the certifying element of the old
    denominator pushes delta z past the next filtration level), and then
    thinned to a basis modulo the new denominator.
    """
    s = state.s
    deg = s * eng.sig + 1
    matrices = _differential_matrices(eng, state)
    new_reps: dict[int, tuple[int, ...]] = {}
    new_denom: dict[int, Subspace] = {}
    for n in eng.grades:
        cur = _cell_echelon(eng, state, n + eng.sig)
        for b in eng.boundary_part(n - deg, n).basis:
            cur.add(b)
        new_denom[n] = cur.freeze()
        picked = []
        src = state.reps[n]
        if src:
            repair = _repairer(eng, state.denom[n], s + 1, n)
            combine = column_map(src)
            for cmb in matrices[n].kernel_basis().basis:
                v = repair(combine(cmb))
                if cur.add(v):
                    picked.append(v)
        new_reps[n] = tuple(picked)
    return _State(s + 1, new_reps, new_denom)


def _degenerate(eng: _Engine, state: _State) -> bool:
    """Whether E^s = E^infty for degree reasons, s = state.s: no two nonzero
    cells of E^s lie k'*Sigma + 1 apart for any k' >= s. Then d^s vanishes,
    E^{s+1} has the same nonzero cells, and so on for every later page."""
    live = [n for n in eng.grades if state.reps[n]]
    occupied = set(live)
    first = state.s * eng.sig + 1
    for n in live:
        for m in range(n + first, live[-1] + 1, eng.sig):
            if m in occupied:
                return False
    return True


class _Pages:
    """The page recursion of one complex, advanced only as far as a reader
    asks: ``state(k)`` is the literal stage-k presentation, ``stage(k)`` the
    stage at which readers of dimensions and ranks read E^k (k, or the stop
    if that lies below k). `_degenerate` runs at most once per state, and
    only on states below the page asked for."""

    def __init__(self, c: FilteredComplex):
        self.eng = _Engine(c)
        self._states = [_initial_state(self.eng)]
        self._checked = 0  # states 1.._checked were tested for the stop
        self._stop = math.inf

    def state(self, k: int) -> _State:
        states = self._states
        while len(states) <= k:
            states.append(_advance(self.eng, states[-1]))
        return states[k]

    def stage(self, k: float) -> int:
        """k = math.inf gives the stop s, where E^s = E^infty."""
        while self._stop == math.inf and self._checked + 1 < k:
            self._checked += 1
            if _degenerate(self.eng, self.state(self._checked)):
                self._stop = self._checked
        return min(k, self._stop)

    def dims(self, k: float) -> dict[int, int]:
        """Nonzero dimensions of E^k by grade."""
        return self.state(self.stage(k)).dims()

    def ranks(self, k: int) -> dict[int, int]:
        """rank of d^k out of each occupied grade."""
        if self.stage(k) < k:
            return dict.fromkeys(self.eng.grades, 0)
        return {n: m.rank() for n, m in _differential_matrices(self.eng, self.state(k)).items()}


def _page_from_state(eng: _Engine, state: _State) -> Page:
    cells = {}
    for n in eng.grades:
        j = n % eng.sig
        cells[(n, j)] = PageCell(n, j, len(state.reps[n]), state.reps[n], state.denom[n])
    return Page(state.s, eng.sig, cells)


def page(c: FilteredComplex, k: int) -> Page:
    """Page E^k, k >= 1, via the homology recursion."""
    if k < 1:
        raise ValueError("page index must be >= 1")
    pages = _Pages(c)
    return _page_from_state(pages.eng, pages.state(k))


def differential(c: FilteredComplex, k: int) -> dict[tuple[int, int], BitMatrix]:
    """Matrices of d^k out of every cell (n, j), into (n + Sigma*k + 1, j+1)."""
    if k < 1:
        raise ValueError("differential index must be >= 1")
    pages = _Pages(c)
    mats = _differential_matrices(pages.eng, pages.state(k))
    return {(n, n % pages.eng.sig): m for n, m in mats.items()}


def k_stable(c: FilteredComplex) -> int:
    """Least k >= 1 with E^k = E^infty (page dimensions are nonincreasing
    in k cellwise, so equality with the limit page pins the index)."""
    pages = _Pages(c)
    stop = pages.stage(math.inf)
    final = pages.dims(stop)
    return next(k for k in range(1, stop + 1) if pages.dims(k) == final)


def einfty(c: FilteredComplex) -> Page:
    """The limit page, computed at the stabilization bound."""
    return page(c, stabilization_bound(c))


# -- closed-formula oracle ---------------------------------------------------


def _oracle_numerator_denominator(eng: _Engine, n: int, k: int) -> tuple[Subspace, Subspace]:
    pair = eng._oracle_cache.get((n, k))
    if pair is None:
        sig = eng.sig
        z = eng.cocycles(n, k * sig + 1)
        z_above = eng.cocycles(n + sig, (k - 1) * sig + 1)
        bdry = eng.boundary_part(n - (k - 1) * sig - 1, n)
        pair = eng._oracle_cache[(n, k)] = (z, z_above + bdry)
    return pair


def page_oracle(c: FilteredComplex, k: int) -> Page:
    """Page E^k from the explicit subquotient formulas; no recursion."""
    if k < 1:
        raise ValueError("page index must be >= 1")
    return _oracle_page(_Engine(c), k)


def _oracle_page(eng: _Engine, k: int) -> Page:
    cells = {}
    for n in eng.grades:
        j = n % eng.sig
        z, d = _oracle_numerator_denominator(eng, n, k)
        dim, reps = subquotient(z, d)
        cells[(n, j)] = PageCell(n, j, dim, reps, d)
    return Page(k, eng.sig, cells)


def oracle_differential_ranks(c: FilteredComplex, k: int) -> dict[tuple[int, int], int]:
    """rank of d^k out of each cell, from the formula presentation only."""
    if k < 1:
        raise ValueError("differential index must be >= 1")
    return _oracle_ranks(_Engine(c), k)


def _oracle_ranks(eng: _Engine, k: int) -> dict[tuple[int, int], int]:
    deg = k * eng.sig + 1
    out = {}
    for n in eng.grades:
        z, d = _oracle_numerator_denominator(eng, n, k)
        dim_cell, _ = subquotient(z, d)
        if dim_cell == 0:
            out[(n, n % eng.sig)] = 0
            continue
        _, d_target = _oracle_numerator_denominator(eng, n + deg, k)
        kernel = preimage(eng.apply_delta, z, d_target)
        dim_kernel, _ = subquotient(kernel + d.intersection(z), d)
        out[(n, n % eng.sig)] = dim_cell - dim_kernel
    return out


# -- reporting ---------------------------------------------------------------


def oracle_comparison(c: FilteredComplex, max_k: int):
    """Per k = 1..max_k: (k, recursion dims, oracle dims, recursion ranks of
    d^k, oracle ranks of d^k), each a dict keyed by cell (n, j) holding the
    nonzero entries only. One recursion pass serves every k; the oracle
    shares nothing with it but an engine of its own, and evaluates every k,
    so it also checks where the recursion stopped."""
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    pages = _Pages(c)
    sig = pages.eng.sig
    oracle_eng = _Engine(c)
    out = []
    for k in range(1, max_k + 1):
        fast = {(n, n % sig): d for n, d in pages.dims(k).items()}
        rank_fast = {(n, n % sig): r for n, r in pages.ranks(k).items() if r}
        slow = _oracle_page(oracle_eng, k).dims()
        rank_slow = {key: r for key, r in _oracle_ranks(oracle_eng, k).items() if r}
        out.append((k, fast, slow, rank_fast, rank_slow))
    return out


def page_rows(c: FilteredComplex, max_k: int) -> list[tuple[int, int, int, int, int]]:
    """(k, n, j, dim, rank of d^k) for every nonzero cell of E^1..E^max_k,
    ordered by (k, n, j)."""
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    pages = _Pages(c)
    rows = []
    for k in range(1, max_k + 1):
        ranks = pages.ranks(k)
        rows.extend((k, n, n % pages.eng.sig, d, ranks[n]) for n, d in pages.dims(k).items())
    return rows


def pages_tsv(c: FilteredComplex, max_k: int) -> str:
    """TSV page dump: one row per nonzero cell, ordered by (k, n, j)."""
    lines = ["k\tn\tj\tdim\trank_dk"]
    lines.extend("\t".join(map(str, row)) for row in page_rows(c, max_k))
    return "\n".join(lines) + "\n"
