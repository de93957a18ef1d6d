import math

import pytest

from filtcoh.chain_maps import identity_map, induced_page_map
from filtcoh.cohomology import hf_filtration, integer_graded_cohomology, zsigma_cohomology
from filtcoh.complexes import build_complex
from filtcoh.morse import QuantumEdge, TorusSpec, quantum_perturbed_torus, torus_complex
from filtcoh.spectral import (
    differential,
    einfty,
    k_stable,
    oracle_differential_ranks,
    page,
    page_dims,
    page_oracle,
    pages_tsv,
    stabilization_bound,
)
from conftest import random_complex


def test_page_index_must_be_positive():
    c = torus_complex(TorusSpec(m=1))
    with pytest.raises(ValueError):
        page(c, 0)
    with pytest.raises(ValueError):
        differential(c, 0)
    with pytest.raises(ValueError):
        page_oracle(c, -1)


@pytest.mark.parametrize(
    "reader",
    [page, page_dims, differential, lambda c, k: induced_page_map(identity_map(c), k)],
    ids=["page", "page_dims", "differential", "induced_page_map"],
)
def test_every_recursion_reader_refuses_page_zero(reader):
    with pytest.raises(ValueError, match="^page index must be >= 1$"):
        reader(torus_complex(TorusSpec(m=1)), 0)


def test_zero_differential_pages_equal_counts():
    c = torus_complex(TorusSpec(m=3))
    for k in (1, 2, 5):
        dims = page(c, k).dims()
        assert dims == {(n - 3, (n - 3) % 2): math.comb(3, n) for n in range(4)}
    assert k_stable(c) == 1


def test_torus_page_one_matches_cohomology_per_residue():
    for m in (1, 2, 3):
        c = torus_complex(TorusSpec(m=m))
        p1 = page(c, 1)
        sig = c.sigma_maslov
        for j in range(sig):
            total = sum(cell.dim for (n, jj), cell in p1.cells.items() if jj == j)
            expect = sum(math.comb(m, n + m) for n in range(-m, 1) if n % sig == j)
            assert total == expect


def test_quantum_matching_kills_page_two():
    q = quantum_perturbed_torus(
        TorusSpec(m=2), [QuantumEdge((), (1, 2), 1), QuantumEdge((1,), (2,), 1)]
    )
    p1 = page(q, 1)
    assert sorted(p1.dims().values()) == [1, 1, 2]
    d1 = differential(q, 1)
    assert sum(m.rank() for m in d1.values()) == 2
    assert page(q, 2).dims() == {}
    assert k_stable(q) == 2


def test_shift0_only_differentials_vanish_after_page_one():
    # with only shift-0 edges the action happens at the graded level
    c = build_complex(
        3,
        "1/3",
        0,
        [("x", "5/6", 0), ("y", "1/2", 1), ("w", "2/3", 0)],
        [("x", "y")],
    )
    for k in range(1, 4):
        assert all(m.rank() == 0 for m in differential(c, k).values())
    assert k_stable(c) == 1
    assert page(c, 1).dims() == {(0, 0): 1}


def test_empty_complex():
    c = build_complex(3, "1/3", 0, [], [])
    assert page(c, 1).dims() == {}
    assert einfty(c).dims() == {}
    assert k_stable(c) == 1
    assert differential(c, 1) == {}


def test_page_one_equals_integer_graded_cohomology(rng):
    for _ in range(30):
        c = random_complex(rng, max_gens=24)
        dims = integer_graded_cohomology(c)
        p1 = page(c, 1).dims()
        assert p1 == {(n, n % c.sigma_maslov): d for n, d in dims.dims}


def test_oracle_equivalence_randomized(rng):
    for _ in range(60):
        c = random_complex(rng, max_gens=24)
        bound = stabilization_bound(c)
        for k in range(1, bound + 1):
            assert page(c, k).dims() == page_oracle(c, k).dims()
            fast = {key: m.rank() for key, m in differential(c, k).items() if m.rank()}
            slow = {key: r for key, r in oracle_differential_ranks(c, k).items() if r}
            assert fast == slow


def test_oracle_beyond_stabilization_equals_einfty(rng):
    for _ in range(10):
        c = random_complex(rng, max_gens=16)
        bound = stabilization_bound(c)
        assert page_oracle(c, bound + 3).dims() == einfty(c).dims()


def test_convergence_to_filtration_quotients(rng):
    for _ in range(30):
        c = random_complex(rng, max_gens=24)
        lim = einfty(c)
        filt = hf_filtration(c)
        sig = c.sigma_maslov
        for (n, j), cell in lim.cells.items():
            assert cell.dim == filt.level_dim(j, n) - filt.level_dim(j, n + sig)
        hf = zsigma_cohomology(c)
        for j in range(sig):
            total = sum(cell.dim for (nn, jj), cell in lim.cells.items() if jj == j)
            assert total == hf.dim(j)


def test_corollary_trivial_differentials(rng):
    for _ in range(40):
        c = random_complex(rng, max_gens=24)
        sig = c.sigma_maslov
        dims = integer_graded_cohomology(c)
        hf = zsigma_cohomology(c)
        collapsed = all(
            sum(d for n, d in dims.dims if n % sig == j) == hf.dim(j) for j in range(sig)
        )
        assert collapsed == (k_stable(c) == 1)


def test_rank_conservation_even_sigma(rng):
    # d^k shifts the residue class by one, so for even Sigma the signed sum
    # of page dimensions over classes is the same on every page
    for _ in range(25):
        c = random_complex(rng, max_gens=24, sigma_choices=(4, 6))
        sig = c.sigma_maslov
        values = set()
        for k in range(1, stabilization_bound(c) + 2):
            chi = sum((-1) ** (j % sig) * d for (n, j), d in page(c, k).dims().items())
            values.add(chi)
        assert len(values) <= 1


def test_oracle_page_one_is_integer_graded_cohomology(rng):
    for _ in range(15):
        c = random_complex(rng, max_gens=20)
        dims = integer_graded_cohomology(c)
        assert page_oracle(c, 1).dims() == {
            (n, n % c.sigma_maslov): d for n, d in dims.dims
        }


def test_k_stable_bound(rng):
    for _ in range(30):
        c = random_complex(rng, max_gens=24)
        grades = c.occupied_grades()
        if not grades:
            assert k_stable(c) == 1
            continue
        span = grades[-1] - grades[0]
        assert 1 <= k_stable(c) <= 1 + math.ceil(span / c.sigma_maslov)


def test_differential_squares_to_zero_cellwise(rng):
    for _ in range(20):
        c = random_complex(rng, max_gens=20)
        for k in range(1, stabilization_bound(c) + 1):
            mats = differential(c, k)
            deg = k * c.sigma_maslov + 1
            for (n, j), m in mats.items():
                nxt = mats.get((n + deg, (j + 1) % c.sigma_maslov))
                if nxt is not None and m.rows == nxt.cols and m.rows and m.cols:
                    assert (nxt @ m).is_zero()


def test_deep_representatives(rng):
    # stage-k representatives must push delta past k*Sigma + 1 levels
    for _ in range(10):
        c = random_complex(rng, max_gens=16)
        cols = c.delta_columns()
        for k in range(1, stabilization_bound(c) + 1):
            p = page(c, k)
            for (n, j), cell in p.cells.items():
                for rep in cell.reps:
                    out = 0
                    v = rep
                    while v:
                        i = (v & -v).bit_length() - 1
                        v &= v - 1
                        out ^= cols[i]
                    while out:
                        i = (out & -out).bit_length() - 1
                        out &= out - 1
                        assert c.generators[i].maslov >= n + k * c.sigma_maslov + 1


def test_tsv_dump_format_and_determinism():
    q = quantum_perturbed_torus(
        TorusSpec(m=2), [QuantumEdge((), (1, 2), 1), QuantumEdge((1,), (2,), 1)]
    )
    t1 = pages_tsv(q, 2)
    t2 = pages_tsv(q, 2)
    assert t1 == t2
    lines = t1.strip().splitlines()
    assert lines[0] == "k\tn\tj\tdim\trank_dk"
    rows = [tuple(int(x) for x in ln.split("\t")) for ln in lines[1:]]
    assert rows == sorted(rows)
    assert all(dim > 0 for _, _, _, dim, _ in rows)
