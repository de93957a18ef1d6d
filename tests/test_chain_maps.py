import random

import pytest
from hypothesis import given, settings, strategies as st

from filtcoh import gf2
from filtcoh.chain_maps import (
    FilteredMap,
    _induced_on_states,
    compose,
    delta_map,
    identity_map,
    induced_page_map,
    map_sum,
    verify_cochain_map,
    verify_homotopy,
)
from filtcoh.complexes import InternalError, build_complex, relabel_complex
from filtcoh.morse import TorusSpec, torus_complex
from filtcoh.spectral import _Pages, stabilization_bound
from conftest import random_complex


def _acyclic_pair():
    return build_complex(3, "1/3", 0, [("x", "3/4", 0), ("y", "1/2", 1)], [("x", "y")])


def test_identity_is_cochain_map(rng):
    for _ in range(10):
        c = random_complex(rng, max_gens=16)
        assert verify_cochain_map(identity_map(c)) == []


def test_grade_dropping_map_violates_filtration():
    c = build_complex(3, "1/3", 0, [("x", "3/4", 0), ("y", "1/2", 1)], [])
    f = FilteredMap(c, c, (("y", "x"),))
    assert any(v.rule == "map-degree" for v in verify_cochain_map(f))


def test_grade_dropping_by_sigma_violates_filtration():
    c = build_complex(3, "1/3", 0, [("x", "3/4", 0), ("y", "1/2", 3)], [])
    f = FilteredMap(c, c, (("y", "x"),))
    assert any(v.rule == "map-filtration" for v in verify_cochain_map(f))


def test_relabeling_verifies_and_is_iso_on_pages():
    c = torus_complex(TorusSpec(m=2))
    mapping = {g.id: g.id + "_r" for g in c.generators}
    d = relabel_complex(c, mapping)
    f = FilteredMap(c, d, tuple(mapping.items()))
    assert verify_cochain_map(f) == []
    for k in (1, 2):
        report = induced_page_map(f, k)
        assert report.iso


def test_noncommuting_map_reports_grade():
    c = _acyclic_pair()
    # drop the edge in the target: f = "identity" cannot commute
    d = build_complex(3, "1/3", 0, [("x", "3/4", 0), ("y", "1/2", 1)], [])
    f = FilteredMap(c, d, (("x", "x"), ("y", "y")))
    problems = verify_cochain_map(f)
    assert [v.rule for v in problems] == ["cochain-commute"]
    assert "grade 0" in problems[0].detail


def test_homotopy_trivial_cases():
    c = _acyclic_pair()
    f = identity_map(c)
    zero = FilteredMap(c, c, ())
    assert verify_homotopy(f, f, FilteredMap(c, c, (), degree=-1)) == []
    bad = verify_homotopy(f, zero, FilteredMap(c, c, (), degree=-1))
    assert any(v.rule == "homotopy-identity" for v in bad)
    assert "grade 0" in bad[0].detail


def test_homotopy_pairing_inverse_on_acyclic_pair():
    c = _acyclic_pair()
    f = identity_map(c)
    zero = FilteredMap(c, c, ())
    h = FilteredMap(c, c, (("y", "x"),), degree=-1)
    assert verify_homotopy(f, zero, h) == []


def test_zero_map_not_iso_identity_is():
    c = torus_complex(TorusSpec(m=1))
    assert induced_page_map(identity_map(c), 1).iso
    assert not induced_page_map(FilteredMap(c, c, ()), 1).iso


def _random_degree_minus_one(rng, c):
    sig = c.sigma_maslov
    entries = []
    for a in c.generators:
        for b in c.generators:
            jump = b.maslov - a.maslov
            if (jump + 1) % sig == 0 and jump >= -1 and rng.random() < 0.25:
                entries.append((a.id, b.id))
    return FilteredMap(c, c, tuple(entries), degree=-1)


def _homotopy_deformation(rng, c, f):
    h = _random_degree_minus_one(rng, c)
    d = delta_map(c)
    g = map_sum(f, map_sum(compose(h, d), compose(d, h)))
    return g, h


def test_homotopic_maps_induce_equal_page_maps(rng):
    for _ in range(15):
        c = random_complex(rng, max_gens=14)
        f = identity_map(c)
        g, h = _homotopy_deformation(rng, c, f)
        assert verify_cochain_map(g) == []
        assert verify_homotopy(f, g, h) == []
        for k in range(1, stabilization_bound(c) + 1):
            mf = induced_page_map(f, k)
            mg = induced_page_map(g, k)
            assert mf.matrices.keys() == mg.matrices.keys()
            for key in mf.matrices:
                assert mf.matrices[key] == mg.matrices[key]


def _plus_homotopy_reference(c, h_entries):
    """Entries of id + delta H + H delta over GF(2), each column a set of
    target ids, with no bit vectors."""
    delta, h = {}, {}
    for a, b in c.edges:
        delta.setdefault(a, set()).add(b)
    for a, b in h_entries:
        h.setdefault(a, set()).add(b)

    def apply(m, ids):
        out = set()
        for x in ids:
            out ^= m.get(x, set())
        return out

    entries = []
    for gen in c.generators:
        col = {gen.id} ^ apply(delta, h.get(gen.id, ())) ^ apply(h, delta.get(gen.id, ()))
        entries.extend((gen.id, t) for t in sorted(col))
    return entries


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.data())
def test_verify_homotopy_against_a_reference(seed, data):
    c = random_complex(random.Random(seed), max_gens=10)
    ids = [g.id for g in c.generators]
    lawful = [
        (a.id, b.id)
        for a in c.generators
        for b in c.generators
        if (b.maslov - a.maslov + 1) % c.sigma_maslov == 0 and b.maslov - a.maslov >= -1
    ]
    h_entries = data.draw(st.lists(st.sampled_from(lawful), unique=True) if lawful else st.just([]))
    h = FilteredMap(c, c, tuple(h_entries), degree=-1)
    g_entries = _plus_homotopy_reference(c, h_entries)
    f = identity_map(c)
    assert verify_homotopy(f, FilteredMap(c, c, tuple(g_entries)), h) == []
    if ids:
        gid = data.draw(st.sampled_from(ids))
        toggled = set(g_entries) ^ {(gid, gid)}
        bad = verify_homotopy(f, FilteredMap(c, c, tuple(sorted(toggled))), h)
        assert [(v.rule, v.ids) for v in bad] == [("homotopy-identity", (gid,))]


def test_composition_of_induced_maps(rng):
    for _ in range(10):
        c = random_complex(rng, max_gens=12)
        f = identity_map(c)
        g1, _ = _homotopy_deformation(rng, c, f)
        g2, _ = _homotopy_deformation(rng, c, f)
        comp = compose(g2, g1)
        assert verify_cochain_map(comp) == []
        for k in range(1, stabilization_bound(c) + 1):
            lhs = induced_page_map(comp, k).matrices
            m1 = induced_page_map(g1, k).matrices
            m2 = induced_page_map(g2, k).matrices
            for key, m in lhs.items():
                if m.rows and m.cols:
                    assert m == m2[key] @ m1[key]


def test_iso_at_page_one_propagates(rng):
    # comparison property: iso on page one forces iso on later pages
    for _ in range(15):
        c = random_complex(rng, max_gens=14)
        f = identity_map(c)
        g, _ = _homotopy_deformation(rng, c, f)
        if not induced_page_map(g, 1).iso:
            continue
        for k in range(2, stabilization_bound(c) + 1):
            assert induced_page_map(g, k).iso


def test_page_class_escaping_its_cell_names_page_cell_and_generators(monkeypatch):
    class Lost:
        def solve(self, v):
            return None

    c = torus_complex(TorusSpec(m=2))
    state = _Pages(c).state(1)  # built before the solver is broken
    monkeypatch.setattr(gf2, "coset_solver", lambda reps, denom: Lost())
    with pytest.raises(InternalError, match="image of a page class escaped the target cell") as info:
        _induced_on_states(identity_map(c), 1, state, state)
    assert (info.value.k, info.value.cell, info.value.ids) == (1, (-2, 0), ("x00",))
