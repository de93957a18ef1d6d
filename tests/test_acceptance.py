"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; every tolerance and budget is pinned here.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from filtcoh.chain_maps import (
    FilteredMap,
    identity_map,
    induced_page_map,
    verify_cochain_map,
    verify_homotopy,
)
from filtcoh.cohomology import hf_filtration, integer_graded_cohomology, zsigma_cohomology
from filtcoh.complexes import relabel_complex, shift_complex, validate
from filtcoh.maslov import (
    LagrangianPath,
    kunneth_index,
    maslov_loop_index,
    unitary_subgroup_loop,
)
from filtcoh.morse import QuantumEdge, TorusSpec, quantum_perturbed_torus, torus_complex
from filtcoh.obstruction import (
    LaurentPoly,
    alternating_binomial_sum,
    check_page_recursion,
    decomposition_search,
    decomposition_search_colex,
    poincare_laurent,
    rank_balance,
    audin_decide,
)
from filtcoh.spectral import (
    differential,
    einfty,
    k_stable,
    oracle_differential_ranks,
    page,
    page_oracle,
    stabilization_bound,
)
from conftest import random_complex, src_env
from test_chain_maps import _homotopy_deformation


def _report(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def suite500():
    rng = random.Random(500_2026)
    suite = [random_complex(rng, max_gens=64, max_edges=200, sigma_choices=(3, 4, 5, 6))
             for _ in range(500)]
    assert all(len(c.generators) <= 64 and len(c.edges) <= 200 for c in suite)
    assert all(validate(c) == [] for c in suite)
    return suite


@pytest.fixture(scope="module")
def quantum_fixtures():
    out = [
        quantum_perturbed_torus(
            TorusSpec(m=2), [QuantumEdge((), (1, 2), 1), QuantumEdge((1,), (2,), 1)]
        ),
        quantum_perturbed_torus(
            TorusSpec(m=2), [QuantumEdge((), (1,), 0), QuantumEdge((2,), (1, 2), 2)]
        ),
        quantum_perturbed_torus(
            TorusSpec(m=3),
            [
                QuantumEdge((), (1,), 1),
                QuantumEdge((2,), (3,), 1),
                QuantumEdge((1, 2), (1, 3), 1),
                QuantumEdge((2, 3), (1, 2, 3), 1),
            ],
        ),
    ]
    return out


def _cli(*argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "filtcoh.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=src_env(),
    )


def test_criterion_01_torus_identification():
    worst = 0.0
    ok = True
    for m in range(1, 7):
        t0 = time.time()
        gen = _cli("gen", "torus", "--m", str(m))
        cohom = _cli("cohom", stdin=gen.stdout)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        if gen.returncode or cohom.returncode or elapsed >= 1.0:
            ok = False
            break
        dims = {n: d for n, d in json.loads(cohom.stdout)["dims"]}
        for n in range(-m, 1):
            if dims.get(n, 0) != math.comb(m, n + m):
                ok = False
    _report(1, ok, f"torus dims are binomial for m=1..6 via the CLI pipeline "
                   f"(slowest m took {worst:.2f}s < 1s)")


def test_criterion_02_oracle_equivalence(suite500):
    t0 = time.time()
    mismatches = 0
    pages_checked = 0
    for c in suite500:
        for k in range(1, stabilization_bound(c) + 1):
            pages_checked += 1
            if page(c, k).dims() != page_oracle(c, k).dims():
                mismatches += 1
                continue
            fast = {key: m.rank() for key, m in differential(c, k).items() if m.rank()}
            slow = {key: r for key, r in oracle_differential_ranks(c, k).items() if r}
            if fast != slow:
                mismatches += 1
    elapsed = time.time() - t0
    _report(2, mismatches == 0 and elapsed < 60,
            f"page == page_oracle (dims and ranks) on {pages_checked} pages of 500 "
            f"complexes, {mismatches} mismatches, {elapsed:.1f}s < 60s")


def test_criterion_03_convergence(suite500):
    bad = 0
    for c in suite500:
        sig = c.sigma_maslov
        lim = einfty(c)
        filt = hf_filtration(c)
        hf = zsigma_cohomology(c)
        for (n, j), cell in lim.cells.items():
            if cell.dim != filt.level_dim(j, n) - filt.level_dim(j, n + sig):
                bad += 1
        for j in range(sig):
            total = sum(cell.dim for (nn, jj), cell in lim.cells.items() if jj == j)
            if total != hf.dim(j):
                bad += 1
    _report(3, bad == 0,
            f"limit page equals the filtration quotients and sums to dim HF per class "
            f"on all 500 complexes ({bad} failures)")


def test_criterion_04_corollary(suite500, quantum_fixtures):
    fixtures = list(suite500) + [torus_complex(TorusSpec(m=m)) for m in range(0, 5)]
    fixtures += quantum_fixtures
    bad = 0
    for c in fixtures:
        sig = c.sigma_maslov
        dims = integer_graded_cohomology(c)
        hf = zsigma_cohomology(c)
        collapsed = all(
            sum(d for n, d in dims.dims if n % sig == j) == hf.dim(j) for j in range(sig)
        )
        if collapsed != (k_stable(c) == 1):
            bad += 1
    _report(4, bad == 0,
            f"k_stable == 1 iff integer-graded dims collapse onto HF, "
            f"{len(fixtures)} fixtures ({bad} failures)")


def test_criterion_05_page_recursion(suite500):
    bad = sum(1 for c in suite500 if check_page_recursion(c) != [])
    _report(5, bad == 0,
            f"P(E^k) = P(E^(k+1)) + (1 + t^(-k*Sigma-1)) P(B^k) exactly on all 500 "
            f"complexes ({bad} failures)")


def test_criterion_06_shift_identity(suite500):
    bad = 0
    for c in suite500[:50]:
        sig = c.sigma_maslov
        shifted = shift_complex(c)
        if validate(shifted):
            bad += 1
            continue
        for k in range(1, stabilization_bound(c) + 1):
            base = poincare_laurent(page(c, k))
            moved = poincare_laurent(page(shifted, k))
            # window up by sigma, grades up by Sigma: the page polynomial
            # of the shifted complex is t^Sigma times the original
            if moved != base.shifted(sig):
                bad += 1
            cells = page(c, k).dims()
            cells_shifted = page(shifted, k).dims()
            if cells_shifted != {(n + sig, j): d for (n, j), d in cells.items()}:
                bad += 1
    _report(6, bad == 0,
            f"shifted-complex pages satisfy P'(E^k) = t^Sigma P(E^k) for all pages, "
            f"50 complexes ({bad} failures)")


def test_criterion_07_decomposition_impossibility():
    t0 = time.time()
    checked = 0
    bad = []
    for m in range(3, 13):
        target = LaurentPoly.binomial_power(m)
        for sigma in range(4, m + 2, 2):
            k = 1
            while (k + 1) * sigma - 1 <= m + sigma:
                checked += 1
                primary = decomposition_search(target, sigma, k)
                recheck = decomposition_search_colex(target, sigma, k)
                if primary.found or recheck.found:
                    bad.append((m, sigma, k))
                k += 1
    elapsed = time.time() - t0
    _report(7, not bad and elapsed < 300,
            f"(1+t)^m admits no decomposition for any even Sigma in [4, m+1], "
            f"{checked} (m, Sigma, k) instances certified none by two independent "
            f"scans, {elapsed:.1f}s < 300s; failures: {bad}")


def test_criterion_08_binomial_closed_form():
    bad = 0
    for m in range(1, 31):
        for n_top in range(0, m + 5):
            if alternating_binomial_sum(m, n_top) != (-1) ** n_top * math.comb(m - 1, n_top):
                bad += 1
    _report(8, bad == 0,
            f"alternating binomial sums match (-1)^N C(m-1, N) exhaustively for "
            f"m <= 30 ({bad} failures)")


def test_criterion_09_audin_verdict():
    t0 = time.time()
    ok = True
    details = []
    for m in range(2, 17):
        report = audin_decide(m)
        if report.verdict != 2:
            ok = False
        if not all(c.status in {"excluded_degree", "excluded_partial_sum",
                                "excluded_k1", "escape"} for c in report.cases):
            ok = False
        covered = [c.sigma for c in report.cases]
        if covered != list(range(4, m + 2, 2)):
            ok = False
        escapes = [c for c in report.cases if c.status == "escape"]
        if escapes and (m % 2 == 0 or report.resolution is None):
            ok = False
        if m % 2 == 1 and m >= 3 and report.resolution is None:
            ok = False
        if report.resolution is not None and any(
            c.status == "escape" for c in report.resolution.cases
        ):
            ok = False
        details.append((m, len(report.cases)))
    m2 = audin_decide(2)
    if m2.cases != () or m2.verdict != 2:
        ok = False
    elapsed = time.time() - t0
    _report(9, ok and elapsed < 10,
            f"verdict Sigma(L) = 2 with complete per-period certificates for "
            f"m = 2..16 (odd m resolved by doubling), {elapsed:.2f}s < 10s")


def test_criterion_10_maslov_suite():
    ok = True
    const = LagrangianPath.from_samples(1, [[[1.0], [0.0]]] * 8, closed=True)
    if maslov_loop_index(const) != 0:
        ok = False
    half = []
    for k in range(64):
        t = k / 64
        half.append([[math.cos(math.pi * t)], [math.sin(math.pi * t)]])
    half_path = LagrangianPath.from_samples(1, half, closed=True)
    if maslov_loop_index(half_path) != 1:
        ok = False
    double = []
    for k in range(128):
        t = k / 128
        double.append([[math.cos(2 * math.pi * t)], [math.sin(2 * math.pi * t)]])
    if maslov_loop_index(LagrangianPath.from_samples(1, double, closed=True)) != 2:
        ok = False
    rng = random.Random(10_2026)
    additivity_failures = 0
    odd = 0
    for _ in range(200):
        m1, m2 = rng.randint(1, 2), rng.randint(1, 2)
        t1 = [rng.randint(-2, 2) for _ in range(m1)]
        t2 = [rng.randint(-2, 2) for _ in range(m2)]
        p1 = unitary_subgroup_loop(m1, t1)
        p2 = unitary_subgroup_loop(m2, t2)
        left, right = maslov_loop_index(p1), maslov_loop_index(p2)
        if kunneth_index(p1, p2) != left + right:
            additivity_failures += 1
        if left % 2 or right % 2:
            odd += 1
    _report(10, ok and additivity_failures == 0 and odd == 0,
            f"loop indices: constant 0, half-turn 1, doubling doubles; Kunneth "
            f"additivity exact on 200 random product loops; oriented-frame loops all "
            f"even ({additivity_failures} additivity, {odd} parity failures)")


def test_criterion_11_chain_map_suite():
    rng = random.Random(11_2026)
    ok = True
    c = torus_complex(TorusSpec(m=2))
    if verify_cochain_map(identity_map(c)) != []:
        ok = False
    mapping = {g.id: g.id + "_r" for g in c.generators}
    relabeled = FilteredMap(c, relabel_complex(c, mapping), tuple(mapping.items()))
    if verify_cochain_map(relabeled) != [] or not induced_page_map(relabeled, 1).iso:
        ok = False
    mismatches = 0
    for _ in range(100):
        cx = random_complex(rng, max_gens=18)
        f = identity_map(cx)
        g, h = _homotopy_deformation(rng, cx, f)
        if verify_cochain_map(g) or verify_homotopy(f, g, h):
            mismatches += 1
            continue
        for k in range(1, stabilization_bound(cx) + 1):
            mf = induced_page_map(f, k).matrices
            mg = induced_page_map(g, k).matrices
            if mf.keys() != mg.keys() or any(mf[key] != mg[key] for key in mf):
                mismatches += 1
                break
    _report(11, ok and mismatches == 0,
            f"identity/relabeling maps verify; f and f + H d + d H induce identical "
            f"page maps on 100 randomized triples ({mismatches} failures)")


def test_criterion_12_acyclic_quantum_fixtures(quantum_fixtures):
    expectations = [2, 3, 2]  # 1 + max shift used per fixture
    ok = True
    for c, expect_k in zip(quantum_fixtures, expectations):
        if validate(c) != []:
            ok = False
        if zsigma_cohomology(c).dims != ():
            ok = False
        if k_stable(c) != expect_k:
            ok = False
        if rank_balance(c) is not True:
            ok = False
    _report(12, ok,
            "perfect quantum matchings: HF = 0, k_stable = 1 + max shift, and the "
            "signed rank balance cancels exactly")
