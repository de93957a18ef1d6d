import math

import pytest
from hypothesis import given, settings, strategies as st

from filtcoh.complexes import build_complex
from filtcoh.morse import QuantumEdge, TorusSpec, quantum_perturbed_torus, torus_complex
from filtcoh import obstruction
from filtcoh.obstruction import (
    LaurentPoly,
    PreconditionError,
    alternating_binomial_sum,
    audin_decide,
    check_page_recursion,
    decomposition_search,
    decomposition_search_colex,
    poincare_laurent,
    rank_balance,
)
from filtcoh.spectral import page
from conftest import hall_violated, random_complex


def test_laurent_basics():
    p = LaurentPoly({2: 1, -1: 3})
    q = LaurentPoly({2: -1})
    assert (p + q).coeffs == {-1: 3}
    assert (p * LaurentPoly.one()) == p
    assert p.shifted(2).coeffs == {4: 1, 1: 3}
    assert LaurentPoly.binomial_power(3).coeffs == {0: 1, 1: 3, 2: 3, 3: 1}
    assert LaurentPoly({0: 0}).is_zero()


def test_poincare_torus_page_one():
    c = torus_complex(TorusSpec(m=2))
    poly = poincare_laurent(page(c, 1))
    assert poly == LaurentPoly({-2: 1, -1: 2, 0: 1})
    assert poly == LaurentPoly.binomial_power(2).shifted(-2)


def test_poincare_empty_and_single():
    c = build_complex(3, "1/3", 0, [], [])
    assert poincare_laurent(page(c, 1)).is_zero()
    c = build_complex(3, "1/3", 0, [("a", "1/2", 5)], [])
    assert poincare_laurent(page(c, 1)) == LaurentPoly({5: 1})


def test_recursion_zero_differential():
    assert check_page_recursion(torus_complex(TorusSpec(m=3))) == []


def test_recursion_quantum_torus():
    q = quantum_perturbed_torus(
        TorusSpec(m=2), [QuantumEdge((), (1, 2), 1), QuantumEdge((1,), (2,), 1)]
    )
    assert check_page_recursion(q) == []


def test_recursion_randomized(rng):
    for _ in range(60):
        assert check_page_recursion(random_complex(rng, max_gens=24)) == []


def test_decomposition_witness_by_construction():
    target = LaurentPoly({0: 1, 1: 1, 3: 1, 4: 1})  # (1 + t)(1 + t^3)
    result = decomposition_search(target, 2, 1)
    assert result.found and result.verify()
    assert result.witness[0] == LaurentPoly({0: 1, 1: 1})


def test_decomposition_impossible_quartic():
    result = decomposition_search(LaurentPoly.binomial_power(4), 4, 1)
    assert not result.found
    # deg 4 < offset 5: every exponent is a chain of its own, and the lowest
    # one, 0, is a Hall set with T({0}) = 1 > T(N({0})) = 0
    assert result.certificate == (0,) and result.verify()
    assert not decomposition_search_colex(LaurentPoly.binomial_power(4), 4, 1).found


def test_decomposition_zero_target():
    result = decomposition_search(LaurentPoly.zero(), 4, 2)
    assert result.found and all(q.is_zero() for q in result.witness)


def test_decomposition_rejects_negative_target():
    with pytest.raises(ValueError):
        decomposition_search(LaurentPoly({0: -1}), 2, 1)
    with pytest.raises(ValueError):
        decomposition_search(LaurentPoly({-1: 1}), 2, 1)


def test_decomposition_odd_sigma_positive_case():
    # (1+t)^3 = (1 + t^2) * q? no; but Sigma = 1, k = 2 admits witnesses
    target = LaurentPoly.binomial_power(3)
    result = decomposition_search(target, 1, 2)
    assert result.found == decomposition_search_colex(target, 1, 2).found
    if result.found:
        assert result.verify()


def test_two_searches_agree_on_small_targets():
    for m in range(1, 7):
        for sigma in (1, 2, 3, 4):
            for k in (1, 2):
                target = LaurentPoly.binomial_power(m)
                a = decomposition_search(target, sigma, k)
                b = decomposition_search_colex(target, sigma, k)
                assert a.found == b.found, (m, sigma, k)
                if a.found:
                    assert a.verify() and b.verify()


@st.composite
def decomposition_problems(draw):
    """A nonnegative target of degree <= 14 with Sigma in 1..4 and k in
    1..3: half the draws multiply out random Q_i >= 0 (so a witness exists),
    half take arbitrary coefficients (mostly no decomposition)."""
    sigma = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        target = LaurentPoly.zero()
        for i in range(1, k + 1):
            top = 14 - i * sigma - 1
            coeffs = draw(st.lists(st.integers(0, 2), max_size=max(top + 1, 0)))
            target = target + (LaurentPoly.one() + LaurentPoly.term(i * sigma + 1)) * LaurentPoly(dict(enumerate(coeffs)))
    else:
        coeffs = draw(st.lists(st.integers(0, 4), max_size=15))
        target = LaurentPoly(dict(enumerate(coeffs)))
    return target, sigma, k


def recursive_colex(target: LaurentPoly, sigma: int, k: int):
    """The colex scan as it was first written, one recursive call per
    exponent and per split slot: (witness or None, nodes). The iterative
    scan must keep its visiting order, so its witnesses and node counts."""
    if target.is_zero():
        return tuple(LaurentPoly.zero() for _ in range(k)), 1
    deg = target.max_exp
    offsets = [i * sigma + 1 for i in range(1, k + 1)]
    deg_q = [deg - off for off in offsets]
    tcoef = [target.coeff(e) for e in range(deg + 1)]
    q = [dict() for _ in range(k)]
    nodes = 0

    def ascend(e):
        nonlocal nodes
        nodes += 1
        if e > deg:
            return True
        need = tcoef[e] - sum(
            q[i].get(e - offsets[i], 0) for i in range(k) if 0 <= e - offsets[i] <= deg_q[i]
        )
        if need < 0:
            return False
        slots = [i for i in reversed(range(k)) if e <= deg_q[i]]
        if not slots:
            return need == 0 and ascend(e + 1)

        def split(pos, left):
            nonlocal nodes
            i = slots[pos]
            cap = tcoef[e + offsets[i]]
            if pos == len(slots) - 1:
                if left > cap:
                    return False
                q[i][e] = left
                if ascend(e + 1):
                    return True
                del q[i][e]
                return False
            for val in range(min(left, cap), -1, -1):
                nodes += 1
                q[i][e] = val
                if split(pos + 1, left - val):
                    return True
            del q[i][e]
            return False

        return split(0, need)

    found = ascend(0)
    return (tuple(LaurentPoly(qi) for qi in q) if found else None), nodes


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(decomposition_problems())
def test_decomposition_search_matches_colex_scan(problem):
    target, sigma, k = problem
    result = decomposition_search(target, sigma, k)
    scan = decomposition_search_colex(target, sigma, k)
    assert result.found == scan.found
    assert (scan.witness, scan.nodes) == recursive_colex(target, sigma, k)
    if k == 1 or sigma % 2 == 0:
        assert result.nodes == 0  # decided by the chains or the flow alone
    if result.found:
        assert result.verify() and result.certificate is None
    elif result.certificate is not None:
        assert hall_violated(target.coeffs, sigma, k, result.certificate)
        assert result.verify() and result.nodes == 0
    else:
        # only the top-down search may say "none" without a certificate
        assert sigma % 2 == 1 and k >= 2 and result.nodes > 0


def test_colex_scan_has_no_depth_limit():
    # one exponent per loop step, not per stack frame: 1 + t^4 does not
    # divide (1+t)^1500 with a nonnegative quotient
    result = decomposition_search_colex(LaurentPoly.binomial_power(1500), 3, 1)
    assert not result.found and result.nodes > 0


def test_decomposition_odd_cycle_reaches_search():
    # offsets 2 and 3 join 0-2-4-6-3-0, a 5-cycle with capacity 1 at each
    # exponent: Hall's condition holds (half a unit on every edge), yet no
    # integral decomposition exists, so only the top-down search can say so
    target = LaurentPoly({0: 1, 2: 1, 3: 1, 4: 1, 6: 1})
    result = decomposition_search(target, 1, 2)
    assert not result.found and result.certificate is None and result.nodes > 0
    assert not result.verify()
    assert not decomposition_search_colex(target, 1, 2).found


def test_decomposition_search_budget(monkeypatch):
    target = LaurentPoly.binomial_power(8)
    # the witness and node count of the former recursive search, whose
    # order the top-down search keeps
    result = decomposition_search(target, 1, 2)
    assert result.nodes == 26754
    assert result.witness == (LaurentPoly({2: 27, 3: 54, 4: 27}), LaurentPoly({0: 1, 1: 8, 2: 1, 3: 1, 4: 8, 5: 1}))
    monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", 1000)
    with pytest.raises(obstruction.SearchBudgetExceeded, match="budget of 1000 nodes"):
        decomposition_search(target, 1, 2)


def test_alternating_binomial_examples():
    assert alternating_binomial_sum(5, 5) == 0
    assert alternating_binomial_sum(4, 2) == 3
    assert alternating_binomial_sum(4, 0) == 1


def test_alternating_binomial_closed_form():
    for m in range(1, 31):
        for n_top in range(0, m + 3):
            assert alternating_binomial_sum(m, n_top) == (-1) ** n_top * math.comb(m - 1, n_top)


def test_alternating_binomial_closed_form_large_m():
    for m, n_top in ((2003, 0), (2003, 1001), (2003, 2002), (2003, 2003), (3011, 1498), (3011, 4000)):
        assert alternating_binomial_sum(m, n_top) == (-1) ** n_top * math.comb(m - 1, n_top)


def test_rank_balance_on_acyclic_fixture():
    q = quantum_perturbed_torus(
        TorusSpec(m=2), [QuantumEdge((), (1, 2), 1), QuantumEdge((1,), (2,), 1)]
    )
    assert rank_balance(q) is True


def test_rank_balance_empty_complex():
    assert rank_balance(build_complex(4, "1/4", 0, [], [])) is True


def test_rank_balance_preconditions():
    with pytest.raises(PreconditionError, match="even"):
        rank_balance(build_complex(3, "1/3", 0, [("a", "1/2", 0)], []))
    with pytest.raises(PreconditionError, match="limit page"):
        rank_balance(torus_complex(TorusSpec(m=2)))


def test_audin_m2_immediate():
    report = audin_decide(2)
    assert report.verdict == 2
    assert report.cases == ()
    assert report.resolution is None


def test_audin_m4_degree_exclusion():
    report = audin_decide(4)
    assert report.verdict == 2
    cases = {c.sigma: c for c in report.cases}
    assert cases[4].status == "excluded_degree"
    assert report.resolution is None


def test_audin_m3_doubles():
    report = audin_decide(3)
    assert report.verdict == 2
    cases = {c.sigma: c for c in report.cases}
    assert cases[4].status == "excluded_k1" and cases[4].k == 1
    assert report.resolution is not None and report.resolution.m == 6


def test_audin_m7_escape_resolved():
    report = audin_decide(7)
    cases = {c.sigma: c for c in report.cases}
    assert cases[4].status == "escape" and cases[4].k == 2
    assert cases[6].status == "excluded_degree"
    assert cases[8].status == "excluded_k1"
    assert report.resolution.m == 14
    assert all(c.status != "escape" for c in report.resolution.cases)
    assert report.verdict == 2


def test_audin_verdict_range():
    for m in range(2, 17):
        report = audin_decide(m)
        assert report.verdict == 2
        if m % 2 == 0:
            assert all(c.status != "escape" for c in report.cases)
            assert report.resolution is None


def test_audin_report_serialization():
    report = audin_decide(5)
    data = report.as_dict()
    assert data["m"] == 5 and data["verdict"] == 2
    assert all(set(c) <= {"Sigma", "status", "k"} for c in data["cases"])
    assert "resolution" in data
    assert "Sigma" in report.table()


# Where page counting stops excluding an even period (README, "What `audin`
# decides"): (1 + t)^m = sum_r (1 + t^(r*Sigma+1)) Q_r, r <= max(1, (m-1)//Sigma),
# has no solution at m and one at m + 1.
@pytest.mark.parametrize("sigma, m", [(4, 58), (6, 118), (2, 18)])
def test_audin_counting_boundaries(sigma, m):
    none = decomposition_search(LaurentPoly.binomial_power(m), sigma, max(1, (m - 1) // sigma))
    assert none.witness is None and none.verify()
    assert hall_violated(none.target.coeffs, sigma, none.k, none.certificate)
    witness = decomposition_search(LaurentPoly.binomial_power(m + 1), sigma, max(1, m // sigma))
    assert witness.witness is not None and witness.verify()


def test_audin_axioms_name_the_partial_sum_premise():
    report = audin_decide(60)
    assert any(axiom.startswith("partial sums:") for axiom in report.axioms)
    assert "axioms" not in report.as_dict() and "partial sums" not in report.table()
