"""Independent checks of filtcoh outputs.

Nothing here imports filtcoh. The checks use a dense GF(2) rank that
eliminates on the highest set bit (filtcoh eliminates on the lowest),
integer polynomial arithmetic on plain dicts, and closed forms. Each check
takes the parsed JSON output and exit code of a job and returns None when
the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bit vectors, by highest-bit elimination."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            w = basis.get(top)
            if w is None:
                basis[top] = v
                break
            v ^= w
    return len(basis)


@dataclass(frozen=True)
class Cx:
    """A filtered complex as the benchmark built it: the Maslov period, one
    grade per generator, the generator ids and, per generator, the bitmask
    of the generators its coboundary hits."""

    sigma: int
    grades: tuple[int, ...]
    ids: tuple[str, ...]
    cols: tuple[int, ...]

    def span(self) -> int:
        return max(self.grades) - min(self.grades) if self.grades else 0

    def stabilization_bound(self) -> int:
        return _least_k(self.span(), self.sigma)

    def shift0_col(self, i: int) -> int:
        g = self.grades[i] + 1
        v, out = self.cols[i], 0
        while v:
            low = v & -v
            if self.grades[low.bit_length() - 1] == g:
                out |= low
            v ^= low
        return out


def cx_from_json(text: str) -> Cx:
    """Read a complex file into a Cx; the grade law and ids are trusted."""
    data = json.loads(text)
    ids = tuple(g["id"] for g in data["generators"])
    pos = {gid: i for i, gid in enumerate(ids)}
    cols = [0] * len(ids)
    for a, b in data["edges"]:
        cols[pos[a]] ^= 1 << pos[b]
    grades = tuple(g["maslov"] for g in data["generators"])
    return Cx(data["sigma_maslov"], grades, ids, tuple(cols))


def _least_k(span: int, sigma: int) -> int:
    """Least k >= 1 with k*Sigma + 1 > span: the page where every later
    differential vanishes for degree reasons."""
    k = 1
    while k * sigma + 1 <= span:
        k += 1
    return k


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _ids_to_vec(cx: Cx, ids) -> int:
    pos = {gid: i for i, gid in enumerate(cx.ids)}
    return _mask(pos[gid] for gid in ids)


def integer_dims(cx: Cx) -> dict[int, int]:
    """dim H^n of the shift-0 differential, from ranks of its grade blocks."""
    by_grade: dict[int, list[int]] = {}
    for i, g in enumerate(cx.grades):
        by_grade.setdefault(g, []).append(i)
    rank = {n: gf2_rank(cx.shift0_col(i) for i in members) for n, members in by_grade.items()}
    dims = {}
    for n, members in by_grade.items():
        d = len(members) - rank[n] - rank.get(n - 1, 0)
        if d:
            dims[n] = d
    return dims


def _classes(cx: Cx) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, g in enumerate(cx.grades):
        out.setdefault(g % cx.sigma, []).append(i)
    return out


def zsigma_dims(cx: Cx) -> dict[int, int]:
    """dim HF^j of the total coboundary per residue class j."""
    cls = _classes(cx)
    rank = {j: gf2_rank(cx.cols[i] for i in members) for j, members in cls.items()}
    dims = {}
    for j, members in cls.items():
        d = len(members) - rank[j] - rank.get((j - 1) % cx.sigma, 0)
        if d:
            dims[j] = d
    return dims


def hf_chain(cx: Cx, j: int) -> list[list[int]]:
    """[n, dim F_n HF^j] over the occupied levels n of class j.

    dim F_n HF^j = dim(ker delta on F_n C_j) - dim(im delta_{j-1} cap F_n),
    and the second term is rank(delta_{j-1}) minus the rank of delta_{j-1}
    with the rows of F_n deleted.
    """
    members = _classes(cx).get(j, [])
    prev = [cx.cols[i] for i in _classes(cx).get((j - 1) % cx.sigma, [])]
    rank_prev = gf2_rank(prev)
    out = []
    for n in sorted({cx.grades[i] for i in members}):
        level = [i for i in members if cx.grades[i] >= n]
        kernel = len(level) - gf2_rank(cx.cols[i] for i in level)
        outside = ~_mask(level)
        boundary = rank_prev - gf2_rank(v & outside for v in prev)
        out.append([n, kernel - boundary])
    return out


def _expect(cond: bool, what: str):
    return None if cond else what


def _first(*reasons):
    for r in reasons:
        if r:
            return r
    return None


# -- torus-einf ---------------------------------------------------------------


def torus_cells(m: int, sigma: int) -> list[list[int]]:
    return [[i - m, (i - m) % sigma, math.comb(m, i)] for i in range(m + 1)]


def check_torus_einfty(out, code, cx: Cx, m: int, sigma: int):
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out.get("k") == _least_k(m, sigma), f"limit page k = {out.get('k')}"),
        _expect(out.get("cells") == torus_cells(m, sigma), "E^infty cells differ from C(m, i) at n = i - m"),
    )


def check_torus_kl(out, code, cx: Cx, m: int, sigma: int):
    return _first(_expect(code == 0, f"exit {code}"), _expect(out == {"k_stable": 1}, f"k(L) {out}"))


def check_torus_hf(out, code, cx: Cx, m: int, sigma: int):
    """Closed forms for the dims and the filtration; the representatives are
    checked on the generated torus, which must have no edges."""
    dims: dict[int, int] = {}
    chains: dict[int, list[list[int]]] = {}
    for i in range(m + 1):
        j = (i - m) % sigma
        dims[j] = dims.get(j, 0) + math.comb(m, i)
    for i in range(m + 1):
        n = i - m
        level = sum(math.comb(m, x) for x in range(i, m + 1) if (x - m) % sigma == n % sigma)
        chains.setdefault(n % sigma, []).append([n, level])
    hf = out.get("hf", {})
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(not any(cx.cols), "the generated torus has edges"),
        _expect(hf.get("dims") == [[j, dims[j]] for j in sorted(dims)], "HF dims differ from the binomial sums"),
        _expect(out.get("filtration") == [[j, chains[j]] for j in sorted(chains)], "HF filtration chain"),
        _hf_reps(cx, hf, dims),
    )


def check_torus_poly(out, code, cx: Cx, m: int, sigma: int):
    want = [[i - m, math.comb(m, i)] for i in range(m + 1)]
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out.get("k") == 1 and out.get("poly") == want, "P(E^1) is not t^-m (1+t)^m"),
    )


# -- filtered-mix: random complexes -------------------------------------------


def check_validate(out, code, cx: Cx):
    return _first(_expect(code == 0, f"exit {code}"), _expect(out == {"violations": []}, "violations reported"))


def _check_reps(cx: Cx, reps, members: int, boundary_cols, cocycle_col, dim: int, where: str):
    """Representatives lie in the cochains of their degree (the bitmask
    members), are cocycles, independent modulo boundaries, dim many."""
    vecs = [_ids_to_vec(cx, r) for r in reps]
    if len(vecs) != dim:
        return f"{where}: {len(vecs)} representatives for dim {dim}"
    if any(v & ~members for v in vecs):
        return f"{where}: a representative has a generator of another degree"
    for v in vecs:
        image = 0
        while v:
            low = v & -v
            image ^= cocycle_col(low.bit_length() - 1)
            v ^= low
        if image:
            return f"{where}: a representative is not a cocycle"
    base = gf2_rank(boundary_cols)
    if gf2_rank(list(boundary_cols) + vecs) != base + dim:
        return f"{where}: representatives are dependent modulo boundaries"
    return None


def _rep_degrees(out: dict, dims: dict[int, int]):
    """One representatives entry per nonzero degree, in the order of dims."""
    if [d for d, _ in out.get("representatives", [])] != sorted(dims):
        return "representatives are not listed once for each degree of dims"
    return None


def check_cohom(out, code, cx: Cx):
    dims = integer_dims(cx)
    if code != 0:
        return f"exit {code}"
    if out.get("dims") != [[n, dims[n]] for n in sorted(dims)]:
        return "integer-graded dims differ from the shift-0 ranks"
    bad = _rep_degrees(out, dims)
    if bad:
        return bad
    for n, reps in out["representatives"]:
        members = _mask(i for i, g in enumerate(cx.grades) if g == n)
        prev = [cx.shift0_col(i) for i, g in enumerate(cx.grades) if g == n - 1]
        bad = _check_reps(cx, reps, members, prev, cx.shift0_col, dims[n], f"H^{n}")
        if bad:
            return bad
    return None


def _hf_reps(cx: Cx, hf: dict, dims: dict[int, int]):
    bad = _rep_degrees(hf, dims)
    if bad:
        return bad
    classes = _classes(cx)
    for j, reps in hf["representatives"]:
        prev = [cx.cols[i] for i in classes.get((j - 1) % cx.sigma, [])]
        bad = _check_reps(cx, reps, _mask(classes[j]), prev, lambda i: cx.cols[i], dims[j], f"HF^{j}")
        if bad:
            return bad
    return None


def check_hf(out, code, cx: Cx):
    dims = zsigma_dims(cx)
    if code != 0:
        return f"exit {code}"
    hf = out.get("hf", {})
    if hf.get("dims") != [[j, dims[j]] for j in sorted(dims)]:
        return "Z_Sigma dims differ from the total-coboundary ranks"
    want = [[j, hf_chain(cx, j)] for j in sorted(_classes(cx))]
    return _first(
        _hf_reps(cx, hf, dims),
        _expect(out.get("filtration") == want, "HF filtration chain differs from the rank formula"),
    )


def check_oracle(out, code, cx: Cx):
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out == {"pages_checked": cx.stabilization_bound(), "mismatches": []},
                f"oracle {out.get('pages_checked')} pages, {len(out.get('mismatches', []))} mismatches"),
    )


def check_pages(out, code, cx: Cx):
    """E^1 is the shift-0 cohomology, each page follows from the last by the
    reported ranks, and E^infty sums per class to HF."""
    if code != 0:
        return f"exit {code}"
    bound = cx.stabilization_bound()
    dims: dict[int, dict[int, int]] = {k: {} for k in range(1, bound + 1)}
    ranks: dict[int, dict[int, int]] = {k: {} for k in range(1, bound + 1)}
    for row in out.get("pages", []):
        k, n = row["k"], row["n"]
        if k not in dims or row["j"] != n % cx.sigma or row["dim"] <= 0:
            return f"bad page row {row}"
        dims[k][n] = row["dim"]
        ranks[k][n] = row["rank_dk"]
    if dims[1] != integer_dims(cx):
        return "E^1 differs from the shift-0 cohomology"
    for k in range(1, bound + 1):
        deg = k * cx.sigma + 1
        for n, r in ranks[k].items():
            if r > min(dims[k][n], dims[k].get(n + deg, 0)):
                return f"rank d^{k} at n = {n} exceeds its cells"
        if k == bound:
            break
        for n in set(dims[k]) | set(dims[k + 1]):
            want = dims[k].get(n, 0) - ranks[k].get(n, 0) - ranks[k].get(n - deg, 0)
            if dims[k + 1].get(n, 0) != want:
                return f"E^{k + 1} at n = {n} does not follow from E^{k} and d^{k}"
    if any(ranks[bound].values()):
        return "a differential survives on the limit page"
    totals: dict[int, int] = {}
    for n, d in dims[bound].items():
        totals[n % cx.sigma] = totals.get(n % cx.sigma, 0) + d
    return _expect(totals == zsigma_dims(cx), "E^infty class totals differ from HF")


def check_identity_mapcheck(out, code, cx: Cx):
    want = {"violations": [], "iso_on_pages": {str(k): True for k in range(1, cx.stabilization_bound() + 1)}}
    return _first(_expect(code == 0, f"exit {code}"), _expect(out == want, "identity map is not an iso on every page"))


# -- filtered-mix: quantum-perturbed tori ---------------------------------------


def check_quantum_kl(out, code, cx: Cx, max_shift: int):
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out == {"k_stable": 1 + max_shift}, f"k(L) {out} for max shift {max_shift}"),
    )


def check_quantum_recursion(out, code, cx: Cx, max_shift: int):
    return _first(_expect(code == 0, f"exit {code}"), _expect(out == {"violations": []}, "recursion violations"))


def check_quantum_balance(out, code, cx: Cx, max_shift: int):
    return _first(_expect(code == 0, f"exit {code}"), _expect(out == {"rank_balance": True}, "rank balance false"))


def check_quantum_hf(out, code, cx: Cx, max_shift: int):
    """The complex is acyclic, so HF and every level of its filtration are 0."""
    want = [[j, [[n, 0] for n, _ in hf_chain(cx, j)]] for j in sorted(_classes(cx))]
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(not zsigma_dims(cx), "the generated complex is not acyclic"),
        _expect(out.get("hf") == {"dims": [], "representatives": []}, "HF is not 0"),
        _expect(out.get("filtration") == want, "HF filtration is not 0 on every occupied level"),
    )


# -- obstruction ----------------------------------------------------------------


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def binomial_power(m: int) -> dict[int, int]:
    return {e: math.comb(m, e) for e in range(m + 1)}


def decomposition_sum(witness: list[dict[int, int]], sigma: int) -> dict[int, int]:
    acc: dict[int, int] = {}
    for i, q in enumerate(witness, start=1):
        acc = poly_add(acc, poly_mul({0: 1, i * sigma + 1: 1}, q))
    return acc


def divides_with_nonnegative_quotient(target: dict[int, int], offset: int) -> bool:
    """Whether target = (1 + t^offset) Q for a polynomial Q >= 0, by exact
    division from the top degree down."""
    rest = dict(target)
    if not rest:
        return True
    while rest:
        top = max(rest)
        c = rest[top]
        low = top - offset
        if low < 0 or c < 0:
            return False
        for e in (top, low):
            rest[e] = rest.get(e, 0) - c
            if rest[e] == 0:
                del rest[e]
    return True


def _terms(poly: dict[int, int]) -> list[list[int]]:
    return [[e, poly[e]] for e in sorted(poly)]


def check_decomp(out, code, target: dict[int, int], sigma: int, k: int, expect_found: bool):
    """expect_found comes from a witness the benchmark built, from exact
    division (k = 1) or from the colex cross-check scan."""
    if out.get("target") != _terms(target) or out.get("Sigma") != sigma or out.get("k") != k:
        return "decomp echoes another problem"
    if not expect_found:
        return _first(
            _expect(code == 1, f"exit {code} for a certified none"),
            _expect(out.get("status") == "none" and "witness" not in out, f"status {out.get('status')}, expected none"),
        )
    if code != 0 or out.get("status") != "witness" or out.get("verified") is not True:
        return f"exit {code}, status {out.get('status')}, expected a verified witness"
    witness = [{e: c for e, c in q} for q in out.get("witness", [])]
    if len(witness) != k or any(c < 0 for q in witness for c in q.values()):
        return "witness has the wrong length or a negative coefficient"
    return _expect(decomposition_sum(witness, sigma) == target, "witness does not multiply out to the target")


def check_binom(out, code, m: int, n_top: int):
    want = (-1) ** n_top * math.comb(m - 1, n_top)
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out == {"m": m, "N": n_top, "value": want}, "binom differs from (-1)^N C(m-1, N)"),
    )


def audin_expected(m: int) -> dict:
    """The report the (m+1) mod Sigma rule gives for the m-torus."""
    cases = []
    for sigma in range(4, m + 2, 2):
        if (m + 1) % sigma == 0:
            k = (m + 1) // sigma
            cases.append({"Sigma": sigma, "status": "excluded_k1" if k == 1 else "escape", "k": k})
        elif (m + 1) // sigma >= 2:
            cases.append({"Sigma": sigma, "status": "excluded_partial_sum"})
        else:
            cases.append({"Sigma": sigma, "status": "excluded_degree"})
    out = {"m": m, "cases": cases, "verdict": 2}
    if m % 2 == 1 and any((m + 1) % c["Sigma"] == 0 for c in cases):
        out["resolution"] = audin_expected(2 * m)
    return out


def check_audin(out, code, m: int):
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out == audin_expected(m), "audin report differs from the (m+1) mod Sigma rule"),
    )


def check_maslov_index(out, code, turns: list[int]):
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out == {"index": 2 * sum(turns)}, f"index {out} for turns {turns}"),
    )


def check_maslov_kunneth(out, code, turns_a: list[int], turns_b: list[int]):
    left, right = 2 * sum(turns_a), 2 * sum(turns_b)
    return _first(
        _expect(code == 0, f"exit {code}"),
        _expect(out == {"index": left + right, "left": left, "right": right}, f"Kunneth {out}"),
    )
