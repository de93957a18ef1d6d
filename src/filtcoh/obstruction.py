"""Polynomial obstruction calculus on spectral-sequence pages.

Provides exact Laurent polynomials of page dimensions, the per-page rank
identity they satisfy, a decision procedure for decompositions

    target(t) = sum_{i=1}^{k} (1 + t^{i*Sigma + 1}) Q_i(t)

with nonnegative integer coefficients (forced chains, one max-flow whose
"none" verdicts carry Hall certificates, and a complete search where odd
cycles leave the flow undecided), alternating binomial sums with their
closed form, a signed rank-balance check for acyclic complexes, and the full
even-period exclusion procedure answering the torus question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .complexes import FilteredComplex
from .spectral import Page, _Pages, stabilization_bound

__all__ = [
    "LaurentPoly",
    "poincare_laurent",
    "check_page_recursion",
    "DecompositionResult",
    "decomposition_search",
    "decomposition_search_colex",
    "alternating_binomial_sum",
    "PreconditionError",
    "rank_balance",
    "AudinCase",
    "AudinReport",
    "audin_decide",
]


class LaurentPoly:
    """Laurent polynomial with arbitrary-precision integer coefficients,
    stored as a map exponent -> coefficient with no explicit zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exponent: coeff})

    @classmethod
    def binomial_power(cls, m: int) -> "LaurentPoly":
        """(1 + t)^m."""
        return cls({e: math.comb(m, e) for e in range(m + 1)})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def shifted(self, exponent: int) -> "LaurentPoly":
        """Multiply by t^exponent."""
        return LaurentPoly({e + exponent: c for e, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    @property
    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    @property
    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def terms(self) -> list[list[int]]:
        return [[e, self.coeffs[e]] for e in sorted(self.coeffs)]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"t^{e}")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)

    __repr__ = __str__


def poincare_laurent(p: Page) -> LaurentPoly:
    """Sum over cells of dim * t^n."""
    out: dict[int, int] = {}
    for (n, _j), cell in p.cells.items():
        if cell.dim:
            out[n] = out.get(n, 0) + cell.dim
    return LaurentPoly(out)


@dataclass(frozen=True)
class RecursionViolation:
    k: int
    lhs: LaurentPoly
    rhs: LaurentPoly

    def as_dict(self) -> dict:
        return {"k": self.k, "lhs": self.lhs.terms(), "rhs": self.rhs.terms()}


def check_page_recursion(c: FilteredComplex) -> list[RecursionViolation]:
    """Verify P(E^k) = P(E^{k+1}) + (1 + t^(-k*Sigma-1)) P(B^k) for every k
    up to stabilization, with B^k the image of d^k indexed by target grade."""
    sig = c.sigma_maslov
    pages = _Pages(c)
    out = []
    for k in range(1, stabilization_bound(c) + 1):
        lhs = LaurentPoly(pages.dims(k))
        nxt = LaurentPoly(pages.dims(k + 1))
        image = LaurentPoly({n + k * sig + 1: r for n, r in pages.ranks(k).items()})
        rhs = nxt + image + image.shifted(-(k * sig + 1))
        if lhs != rhs:
            out.append(RecursionViolation(k, lhs, rhs))
    return out


# -- decomposition search ----------------------------------------------------
#
# Write T = sum_i (1 + t^(i*Sigma+1)) Q_i. A unit of q_i(x) is an edge
# x -- x + i*Sigma + 1 of the "offset graph" on the exponents 0 .. deg T, so
# a decomposition is an exact b-matching of that graph with b = T: the
# edges at each exponent e carry T(e) units in all. Counting each unit once
# at either end shows that T(S) <= T(N(S)) for every set S of exponents and
# its neighbours N(S) = {x +- (i*Sigma + 1) : x in S}; a set that breaks this
# inequality (a Hall set) proves that no decomposition exists.

# Node budget of the top-down search, the one exponential step (odd Sigma,
# k >= 2, Hall's condition met): 9.6 s on one 2-vCPU Xeon (`decomp --m 400
# --sigma 3 --k 3`). Past it the search raises SearchBudgetExceeded instead
# of running on.
DFS_NODE_BUDGET = 20_000_000


class SearchBudgetExceeded(ValueError):
    """The top-down decomposition search used up DFS_NODE_BUDGET nodes
    without a verdict."""


@dataclass(frozen=True)
class DecompositionResult:
    """Witness list (Q_1 .. Q_k) or a "none" verdict. A "none" decided by the
    max-flow or by a forced chain carries `certificate`, a Hall set of
    exponents S with T(S) > T(N(S)); a "none" from the complete top-down
    search carries none. `nodes` counts the top-down search's nodes, 0 when
    it did not run."""

    sigma: int
    k: int
    target: LaurentPoly
    witness: Optional[tuple[LaurentPoly, ...]]
    nodes: int
    certificate: Optional[tuple[int, ...]] = None

    @property
    def found(self) -> bool:
        return self.witness is not None

    def verify(self) -> bool:
        """Multiply the witness out, or check the certificate's Hall
        inequality by integer arithmetic; False when there is neither."""
        if self.witness is not None:
            acc = LaurentPoly.zero()
            for i, q in enumerate(self.witness, start=1):
                acc = acc + (LaurentPoly.one() + LaurentPoly.term(i * self.sigma + 1)) * q
            return acc == self.target and all(q.is_nonnegative() for q in self.witness)
        if self.certificate is not None:
            offsets = [i * self.sigma + 1 for i in range(1, self.k + 1)]
            s = set(self.certificate)
            nbrs = {x + d for x in s for off in offsets for d in (off, -off)}
            weight = self.target.coeff
            return sum(map(weight, s)) > sum(map(weight, nbrs))
        return False


def _check_search_args(target: LaurentPoly, sigma: int, k: int) -> None:
    if sigma < 1 or k < 1:
        raise ValueError("sigma and k must be >= 1")
    if not target.is_nonnegative():
        raise ValueError("target must have nonnegative coefficients")
    if not target.is_zero() and target.min_exp < 0:
        raise ValueError("target must be an ordinary polynomial (no negative exponents)")


def decomposition_search(target: LaurentPoly, sigma: int, k: int) -> DecompositionResult:
    """Decide target = sum_{i=1}^{k} (1 + t^(i*Sigma+1)) Q_i with Q_i >= 0.

    k = 1: exact division by 1 + t^(Sigma+1), one forced chain per residue
    class of exponents mod Sigma + 1 (`_forced_chains`).
    k >= 2: one max-flow on the bipartite double cover of the offset graph
    (`_hall_flow`). A deficit yields a Hall set and the verdict "none". For
    even Sigma every offset is odd, the graph is bipartite by parity and the
    flow itself is an integral witness. For odd Sigma with Hall's condition
    met, the complete top-down search decides (`_top_down`), within
    DFS_NODE_BUDGET nodes.
    """
    _check_search_args(target, sigma, k)
    if target.is_zero():
        return DecompositionResult(sigma, k, target, tuple(LaurentPoly.zero() for _ in range(k)), 0)
    tcoef = [target.coeff(e) for e in range(target.max_exp + 1)]
    offsets = [i * sigma + 1 for i in range(1, k + 1)]
    nodes = 0
    if k == 1:
        q, hall = _forced_chains(tcoef, offsets[0])
    else:
        q, hall = _hall_flow(tcoef, offsets)
        if q is None and hall is None:
            q, nodes = _top_down(tcoef, offsets)
    witness = None if q is None else tuple(LaurentPoly(dict(enumerate(qi))) for qi in q)
    return DecompositionResult(sigma, k, target, witness, nodes, hall)


def _forced_chains(tcoef: list[int], off: int):
    """Exact division by 1 + t^off. The offset graph is a union of paths
    r, r + off, r + 2*off, ..., whose edge units are forced from the bottom
    up: the edge above x carries T(x) minus the edge below. Returns (q, None)
    or (None, Hall set): a negative unit above x, or units left over at a
    chain's top x, make every other exponent of the chain down from the
    exponent below x, or from x, a Hall set."""
    deg = len(tcoef) - 1
    q = [0] * max(deg - off + 1, 0)
    for r in range(min(off, deg + 1)):
        below = 0
        for x in range(r, deg + 1, off):
            above = tcoef[x] - below
            if above < 0:
                return None, tuple(range((x - off) % (2 * off), x - off + 1, 2 * off))
            if x + off > deg:
                if above:
                    return None, tuple(range(x % (2 * off), x + 1, 2 * off))
            else:
                q[x] = above
            below = above
    return [q], None


def _hall_flow(tcoef: list[int], offsets: list[int]):
    """Max-flow from every left copy L_x (capacity T(x) from the source) to
    every right copy R_y (capacity T(y) to the sink), with an arc L_x -> R_y
    for each edge x -- y of the offset graph.

    Returns (None, Hall set) when the flow falls short of T(0) + ... + T(deg):
    the exponents of the left copies on the source side of the minimum cut,
    whose neighbours are the right copies on that side. Otherwise returns
    (None, None), or (q, None) when every offset is odd: the graph is then
    bipartite by parity and the flow on the even -> odd arcs is an integral
    witness."""
    support = [x for x, c in enumerate(tcoef) if c]
    left = {x: 2 + 2 * j for j, x in enumerate(support)}  # R_x is left[x] + 1
    total = sum(tcoef)
    arcs = []
    pairs = []  # (arc index, lower end, offset index) of the even -> odd arcs
    for x in support:
        arcs.append((0, left[x], tcoef[x]))
        arcs.append((left[x] + 1, 1, tcoef[x]))
        for i, off in enumerate(offsets):
            for y in (x - off, x + off):
                if y in left:
                    if x % 2 == 0 and off % 2:
                        pairs.append((len(arcs), min(x, y), i))
                    arcs.append((left[x], left[y] + 1, total))
    flow, residual, reached = _max_flow(2 + 2 * len(support), arcs, 0, 1)
    if flow < total:
        return None, tuple(x for x in support if reached[left[x]])
    if any(off % 2 == 0 for off in offsets):
        return None, None
    deg = len(tcoef) - 1
    q = [[0] * max(deg - off + 1, 0) for off in offsets]
    for a, x, i in pairs:
        q[i][x] = total - residual[2 * a]
    return q, None


def _max_flow(n: int, arcs: list[tuple[int, int, int]], s: int, t: int):
    """Dinic's algorithm with exact integer capacities on nodes 0 .. n-1.
    Arc a = (u, v, cap) is residual entry 2a, its reverse 2a + 1. Returns
    (flow value, residual capacities, reached) with reached[v] true for the
    nodes the source still reaches in the final residual graph."""
    adj: list[list[int]] = [[] for _ in range(n)]
    head, residual = [], []
    for u, v, cap in arcs:
        adj[u].append(len(head))
        head.append(v)
        residual.append(cap)
        adj[v].append(len(head))
        head.append(u)
        residual.append(0)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for a in adj[u]:
                    v = head[a]
                    if residual[a] and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        if level[t] < 0:
            return flow, residual, [lv >= 0 for lv in level]
        # blocking flow: walk admissible arcs from s, augment at t, retreat
        # from dead ends; it[u] skips arcs already found useless this phase
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                push = min(residual[a] for a in path)
                for a in path:
                    residual[a] -= push
                    residual[a ^ 1] += push
                flow += push
                path.clear()
                u = s
            arcs_u = adj[u]
            j = it[u]
            while j < len(arcs_u) and not (residual[arcs_u[j]] and level[head[arcs_u[j]]] == level[u] + 1):
                j += 1
            it[u] = j
            if j < len(arcs_u):
                path.append(arcs_u[j])
                u = head[arcs_u[j]]
            elif u == s:
                break
            else:
                u = head[path.pop() ^ 1]
                it[u] += 1


def _top_down(tcoef: list[int], offsets: list[int]):
    """Complete search over the constraints e = deg .. 0, from the top down.

    Writing T = sum_i (Q_i + t^(i*Sigma+1) Q_i), the coefficient q_i(x) is
    capped by T(x) and, since coefficients are nonnegative, every degree
    bound and cap is forced rather than heuristic. At e the residual demand
    T(e) - sum_i q_i(e) is split among the q_i(e - offset_i), i ascending,
    each value tried from 0 up and the last part forced. Choice points live
    on an explicit stack. Returns (q, nodes) or (None, nodes), counting one
    node per constraint entered and per value tried."""
    deg = len(tcoef) - 1
    q = [[0] * max(deg - off + 1, 0) for off in offsets]
    slots = [sum(off <= e for off in offsets) for e in range(deg + 1)]
    chosen = [[qi for qi in q if e < len(qi)] for e in range(deg + 1)]  # the q_i(e) set above e
    stack: list[list[int]] = []  # choice points [e, i, demand, value, cap]
    nodes = 0
    e, i, demand = deg, -1, 0  # i < 0: enter constraint e; else split at slot i
    while True:
        if nodes > DFS_NODE_BUDGET:
            raise SearchBudgetExceeded(
                f"decomposition search stopped at its budget of {DFS_NODE_BUDGET} nodes without a verdict"
            )
        feasible = True
        if i < 0:
            nodes += 1
            if e < 0:
                return q, nodes
            demand = tcoef[e]
            for qi in chosen[e]:
                demand -= qi[e]
            if demand < 0 or (slots[e] == 0 and demand):
                feasible = False
            elif slots[e] == 0:
                e -= 1
                continue
            else:
                i = 0
        if feasible:
            last = slots[e] - 1
            while i < last:
                x = e - offsets[i]
                stack.append([e, i, demand, 0, min(demand, tcoef[x])])
                nodes += 1
                q[i][x] = 0
                i += 1
            x = e - offsets[last]
            if demand <= tcoef[x]:
                q[last][x] = demand
                e, i = e - 1, -1
                continue
        while stack and stack[-1][3] == stack[-1][4]:
            stack.pop()
        if not stack:
            return None, nodes
        point = stack[-1]
        point[3] += 1
        nodes += 1
        e, i, value = point[0], point[1], point[3]
        q[i][e - offsets[i]] = value
        demand, i = point[2] - value, i + 1


def decomposition_search_colex(target: LaurentPoly, sigma: int, k: int) -> DecompositionResult:
    """Independent re-verification scan: same bounded feasibility problem,
    enumerated from the bottom exponent upward with the opposite variable
    order inside each constraint.

    At exponent e the scan splits the residual coefficient of t^e among the
    open slots q_i(e), i from k down to 1, each capped by the target
    coefficient at its far end, trying the larger values first; the last
    slot takes what is left. Open choices sit on an explicit stack, so the
    depth of the scan is not bounded by the interpreter's. ``nodes`` counts
    one per exponent entered and one per value tried at a non-last slot."""
    _check_search_args(target, sigma, k)
    if target.is_zero():
        return DecompositionResult(sigma, k, target, tuple(LaurentPoly.zero() for _ in range(k)), 1)
    deg = target.max_exp
    offsets = [i * sigma + 1 for i in range(1, k + 1)]
    deg_q = [deg - off for off in offsets]
    tcoef = [target.coeff(e) for e in range(deg + 1)]
    q: list[dict[int, int]] = [dict() for _ in range(k)]
    nodes = 0
    stack: list[list[int]] = []  # open choices [e, pos, value, left before pos]

    def residual(e: int) -> int:
        # q_i(e - offset_i) parts were chosen at constraint e - offset_i
        s = tcoef[e]
        for i in range(k):
            x = e - offsets[i]
            if 0 <= x <= deg_q[i]:
                s -= q[i].get(x, 0)
        return s

    def open_slots(e: int) -> list[int]:
        return [i for i in reversed(range(k)) if e <= deg_q[i]]

    def place(e: int, pos: int, left: int) -> bool:
        # the largest values from slot pos on; False if the last slot's cap is too small
        nonlocal nodes
        slots = open_slots(e)
        for p in range(pos, len(slots) - 1):
            i = slots[p]
            val = min(left, tcoef[e + offsets[i]])
            nodes += 1
            q[i][e] = val
            stack.append([e, p, val, left])
            left -= val
        i = slots[-1]
        if left > tcoef[e + offsets[i]]:
            return False
        q[i][e] = left
        return True

    e, ok = 0, True
    while True:
        if ok:
            nodes += 1
            if e > deg:
                witness = tuple(LaurentPoly(qi) for qi in q)
                return DecompositionResult(sigma, k, target, witness, nodes)
            need = residual(e)
            ok = need >= 0 and (place(e, 0, need) if e <= deg_q[0] else need == 0)
        else:
            # the innermost open choice with a smaller value still to try
            while stack and stack[-1][2] == 0:
                stack.pop()
            if not stack:
                return DecompositionResult(sigma, k, target, None, nodes)
            choice = stack[-1]
            choice[2] -= 1
            nodes += 1
            e, pos, val, left = choice
            q[open_slots(e)[pos]][e] = val
            ok = place(e, pos + 1, left - val)
        if ok:
            e += 1


def alternating_binomial_sum(m: int, n_top: int) -> int:
    """sum_{l=0}^{N} (-1)^l C(m, l); equals (-1)^N C(m-1, N). Each binomial
    comes from the one before, C(m, l+1) = C(m, l) (m - l) / (l + 1), exactly."""
    if m < 1 or n_top < 0:
        raise ValueError("need m >= 1 and N >= 0")
    total, term = 0, 1
    for l in range(min(n_top, m) + 1):
        total += -term if l & 1 else term
        term = term * (m - l) // (l + 1)
    return total


class PreconditionError(ValueError):
    """A check was invoked outside its stated hypotheses."""


def rank_balance(c: FilteredComplex) -> bool:
    """Signed rank bookkeeping: for even Sigma and vanishing limit page,
    sum_j (-1)^j sum_{pages k} dim_j(E^k) must cancel to zero exactly."""
    sig = c.sigma_maslov
    if sig % 2 != 0:
        raise PreconditionError(f"rank balance needs an even Maslov period, got {sig}")
    pages = _Pages(c)
    if pages.dims(math.inf):
        raise PreconditionError("rank balance needs a vanishing limit page (acyclic total complex)")
    total = 0
    for k in range(1, stabilization_bound(c) + 1):
        for n, d in pages.dims(k).items():
            total += (-1) ** (n % sig) * d
    return total == 0


# -- the Audin decision procedure --------------------------------------------

@dataclass(frozen=True)
class AudinCase:
    """One even candidate Maslov period and the rule that disposes of it.

    For period Sigma and a hypothetical stabilization index K >= 2, the
    acyclic spectral sequence of an embedded torus forces the truncated
    alternating binomial sum at N = K*Sigma - 1 to vanish, which happens
    only for N >= m; the degree constraint forces N <= m. Both pin
    m + 1 = K*Sigma, the single escape; K = 1 is killed outright because
    page one carries the nonzero torus cohomology."""

    sigma: int
    status: str  # excluded_degree | excluded_partial_sum | excluded_k1 | escape
    k: Optional[int] = None
    detail: str = ""

    def as_dict(self) -> dict:
        out: dict = {"Sigma": self.sigma, "status": self.status}
        if self.k is not None:
            out["k"] = self.k
        return out


@dataclass(frozen=True)
class AudinReport:
    m: int
    cases: tuple[AudinCase, ...]
    resolution: Optional["AudinReport"]
    verdict: int
    axioms: tuple[str, ...] = (
        "H^*(T^m; Z2) is nonzero for a compact Lagrangian embedding",
        "a displaceable Lagrangian has vanishing total Floer cohomology",
    )

    def as_dict(self) -> dict:
        out = {
            "m": self.m,
            "cases": [case.as_dict() for case in self.cases],
            "verdict": self.verdict,
        }
        if self.resolution is not None:
            out["resolution"] = self.resolution.as_dict()
        return out

    def table(self) -> str:
        lines = [f"m = {self.m}"]
        if not self.cases:
            lines.append("  no even candidate period in [4, m+1]; verdict immediate")
        for case in self.cases:
            mark = f" (k = {case.k})" if case.k is not None else ""
            detail = f"  -- {case.detail}" if case.detail else ""
            lines.append(f"  Sigma = {case.sigma}: {case.status}{mark}{detail}")
        if self.resolution is not None:
            lines.append(f"  escapes resolved by doubling to m = {self.resolution.m}:")
            for sub in self.resolution.table().splitlines():
                lines.append("  " + sub)
        lines.append(f"verdict: Sigma(L) = {self.verdict}")
        return "\n".join(lines)


def _audin_cases(m: int) -> tuple[AudinCase, ...]:
    cases = []
    for sigma in range(4, m + 2, 2):
        kmax = (m + 1) // sigma
        if (m + 1) % sigma == 0:
            k_escape = (m + 1) // sigma
            if k_escape == 1:
                cases.append(
                    AudinCase(
                        sigma,
                        "excluded_k1",
                        k=1,
                        detail="stabilizing at page one contradicts nonzero torus cohomology",
                    )
                )
            else:
                cases.append(
                    AudinCase(
                        sigma,
                        "escape",
                        k=k_escape,
                        detail=f"counting survives only if the page sequence stabilizes at {k_escape}",
                    )
                )
            continue
        if kmax >= 2:
            # every K in [2, kmax] leaves a nonzero truncated alternating sum
            witness = {
                kk: alternating_binomial_sum(m, kk * sigma - 1) for kk in range(2, kmax + 1)
            }
            assert all(v != 0 for v in witness.values())
            cases.append(
                AudinCase(
                    sigma,
                    "excluded_partial_sum",
                    detail="truncated alternating sums "
                    + ", ".join(f"N={kk * sigma - 1}: {v}" for kk, v in witness.items()),
                )
            )
        else:
            cases.append(
                AudinCase(
                    sigma,
                    "excluded_degree",
                    detail=f"2*Sigma - 1 = {2 * sigma - 1} already exceeds m = {m}",
                )
            )
    return tuple(cases)


def audin_decide(m: int) -> AudinReport:
    """Decide the minimal-Maslov-period question for an oriented monotone
    torus of dimension m: every even candidate period >= 4 is excluded, for
    odd m after doubling to the product torus in dimension 2m (an even
    dimension has no escapes because an even period cannot divide m + 1)."""
    if m < 2:
        raise ValueError("torus dimension must be >= 2")
    cases = _audin_cases(m)
    resolution = None
    escapes = [case for case in cases if case.status == "escape"]
    if m % 2 == 1 and any((m + 1) % case.sigma == 0 for case in cases):
        resolution = audin_decide(2 * m)
        assert not [case for case in resolution.cases if case.status == "escape"]
    if escapes and resolution is None:
        raise AssertionError(f"unresolved escape cases for even m = {m}")
    return AudinReport(m=m, cases=cases, resolution=resolution, verdict=2)
