"""The early stop of the page recursion, checked against the literal
recursion run up to the grade-span bound, plus a count gate on page
advances and a mutation of the stopping rule that the oracle must catch."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from filtcoh import spectral
from filtcoh.chain_maps import FilteredMap, _induced_on_states, identity_map, iso_on_pages
from filtcoh.cli import run
from filtcoh.complexes import FilteredComplex, Generator, serialize_complex
from filtcoh.morse import QuantumEdge, TorusSpec, parse_matching, quantum_perturbed_torus
from filtcoh.obstruction import LaurentPoly, PreconditionError, check_page_recursion, rank_balance
from filtcoh.spectral import (
    _Engine,
    _differential_matrices,
    _initial_state,
    k_stable,
    pages_tsv,
    stabilization_bound,
)
from conftest import quantum_matching, random_complex


# -- the literal recursion, page by page up to the bound -----------------------


def literal_states(c: FilteredComplex, top: int):
    """States 0..top of the recursion, advanced with no stopping rule."""
    eng = _Engine(c)
    states = [_initial_state(eng)]
    for _ in range(top):
        states.append(spectral._advance(eng, states[-1]))
    return eng, states


def literal_pages(c: FilteredComplex, top: int):
    """Per k = 0..top: (dims by grade, rank of d^k by grade) from the
    literal recursion."""
    eng, states = literal_states(c, top)
    return [
        (s.dims(), {n: m.rank() for n, m in _differential_matrices(eng, s).items()})
        for s in states
    ]


def literal_k_stable(pages, bound):
    return next(k for k in range(1, bound + 1) if pages[k][0] == pages[bound][0])


def literal_tsv(pages, sig):
    lines = ["k\tn\tj\tdim\trank_dk"]
    for k, (dims, ranks) in enumerate(pages):
        if k:
            lines.extend(f"{k}\t{n}\t{n % sig}\t{d}\t{ranks[n]}" for n, d in sorted(dims.items()))
    return "\n".join(lines) + "\n"


def literal_recursion(pages, sig, bound):
    out = []
    for k in range(1, bound + 1):
        image = LaurentPoly({n + k * sig + 1: r for n, r in pages[k][1].items()})
        rhs = LaurentPoly(pages[k + 1][0]) + image + image.shifted(-(k * sig + 1))
        if LaurentPoly(pages[k][0]) != rhs:
            out.append((k, LaurentPoly(pages[k][0]), rhs))
    return out


def literal_balance(pages, sig, bound):
    if sig % 2:
        return "odd"
    if pages[bound][0]:
        return "not acyclic"
    return sum((-1) ** (n % sig) * d for dims, _ in pages[1 : bound + 1] for n, d in dims.items()) == 0


def literal_iso(f: FilteredMap, top: int) -> dict[int, bool]:
    _, src = literal_states(f.source, top)
    _, tgt = literal_states(f.target, top)
    return {k: _induced_on_states(f, k, src[k], tgt[k]).iso for k in range(1, top + 1)}


def early_balance(c):
    try:
        return rank_balance(c)
    except PreconditionError as exc:
        return "odd" if "even" in str(exc) else "not acyclic"


# -- maps whose two ends stop at different pages -------------------------------


def with_pair(c: FilteredComplex, shift: int) -> FilteredComplex:
    """c plus a contractible pair x -> y of window shift ``shift``: its cells
    live on E^1..E^shift and die on E^{shift+1}."""
    low = c.generators[0].maslov if c.generators else 0
    act = c.r + c.sigma_action / 2
    pair = (Generator("pair-x", act, low), Generator("pair-y", act, low + 1 + shift * c.sigma_maslov))
    return FilteredComplex(
        c.sigma_maslov, c.lam, c.r, c.generators + pair, c.edges + (("pair-x", "pair-y"),)
    )


def sample_maps(c: FilteredComplex, shift: int) -> list[FilteredMap]:
    d = with_pair(c, shift)
    own = tuple((g.id, g.id) for g in c.generators)
    return [
        identity_map(c),
        FilteredMap(c, c, ()),
        FilteredMap(c, d, own),  # inclusion
        FilteredMap(d, c, own),  # projection
    ]


def assert_matches_literal(c: FilteredComplex, shift: int) -> None:
    sig, bound = c.sigma_maslov, stabilization_bound(c)
    pages = literal_pages(c, bound + 2)
    assert k_stable(c) == literal_k_stable(pages, bound)
    assert pages_tsv(c, bound + 2) == literal_tsv(pages, sig)
    assert [(v.k, v.lhs, v.rhs) for v in check_page_recursion(c)] == literal_recursion(pages, sig, bound)
    assert early_balance(c) == literal_balance(pages, sig, bound)
    for f in sample_maps(c, shift):
        top = max(stabilization_bound(f.source), stabilization_bound(f.target))
        assert iso_on_pages(f) == literal_iso(f, top)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(0, 3))
def test_early_stop_matches_literal_on_random_complexes(seed, shift):
    assert_matches_literal(random_complex(random.Random(seed), max_gens=20), shift)


@st.composite
def quantum_tori(draw):
    """Quantum T^4 or T^5: the perfect matching S <-> S + {1}, S in {2..m},
    with a drawn window shift per edge, Sigma 2 or 4 and a drawn lambda."""
    m = draw(st.sampled_from((4, 5)))
    subsets = [[i + 2 for i in range(m - 1) if (mask >> i) & 1] for mask in range(1 << (m - 1))]
    shifts = draw(st.lists(st.integers(0, 3), min_size=len(subsets), max_size=len(subsets)))
    lam = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    spec = TorusSpec(m=m, lam=lam, sigma_maslov=draw(st.sampled_from((2, 4))))
    edges = [QuantumEdge(tuple(s), tuple([1] + s), sh) for s, sh in zip(subsets, shifts)]
    return quantum_perturbed_torus(spec, edges)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(quantum_tori(), st.integers(0, 3))
def test_early_stop_matches_literal_on_quantum_tori(c, shift):
    assert_matches_literal(c, shift)


# -- count gate and mutation ---------------------------------------------------


def quantum_torus(m: int) -> FilteredComplex:
    spec = TorusSpec(m=m, lam=Fraction(2, 3), r=Fraction(1))
    return quantum_perturbed_torus(spec, parse_matching(quantum_matching(m), m))


@pytest.fixture
def advances(monkeypatch):
    """Number of page advances made so far (spectral._advance calls)."""
    count = [0]
    inner = spectral._advance

    def counted(eng, state):
        count[0] += 1
        return inner(eng, state)

    monkeypatch.setattr(spectral, "_advance", counted)
    return count


def write(tmp_path, c: FilteredComplex) -> str:
    path = tmp_path / "complex.json"
    path.write_text(serialize_complex(c))
    return str(path)


def test_kl_advance_count_gate(advances, capsys, tmp_path):
    c = quantum_torus(5)
    assert stabilization_bound(c) == 20
    assert run(["kl", write(tmp_path, c)]) == 0
    assert json.loads(capsys.readouterr().out) == {"k_stable": 3}
    assert advances[0] <= 3


def test_oracle_recursion_advance_count_gate(advances, capsys, tmp_path):
    c = quantum_torus(6)
    assert stabilization_bound(c) == 44
    assert run(["oracle", write(tmp_path, c)]) == 0
    assert json.loads(capsys.readouterr().out) == {"pages_checked": 44, "mismatches": []}
    assert advances[0] <= 3


def test_pages_reads_only_the_pages_asked_for(advances, capsys, tmp_path):
    # quantum T^5 stops at E^3; two pages need two advances and no look past them
    assert run(["pages", write(tmp_path, quantum_torus(5)), "--max-k", "2"]) == 0
    assert [row["k"] for row in json.loads(capsys.readouterr().out)["pages"]][-1] == 2
    assert advances[0] <= 2


@pytest.mark.parametrize("argv, report", [((), {"violations": []}), (("--balance",), {"rank_balance": True})])
def test_recursion_advance_count_gate(advances, capsys, tmp_path, argv, report):
    assert run(["recursion", write(tmp_path, quantum_torus(5)), *argv]) == 0
    assert json.loads(capsys.readouterr().out) == report
    assert advances[0] <= 3


def test_mapcheck_pages_shares_one_pass(advances, capsys, tmp_path):
    c = quantum_torus(5)
    path = write(tmp_path, c)
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({"entries": [[g.id, g.id] for g in c.generators]}))
    assert run(["mapcheck", path, path, str(ident), "--pages"]) == 0
    iso = json.loads(capsys.readouterr().out)["iso_on_pages"]
    assert len(iso) == 20 and all(iso.values())
    assert advances[0] <= 3


def test_oracle_catches_a_stop_one_stage_early(monkeypatch, capsys, tmp_path):
    # the mutant stops at E^{s-1} wherever the rule stops at E^s: here at
    # E^2, one page before d^2 has acted
    rule = spectral._degenerate
    monkeypatch.setattr(
        spectral, "_degenerate", lambda eng, st: rule(eng, st) or rule(eng, spectral._advance(eng, st))
    )
    assert run(["oracle", write(tmp_path, quantum_torus(5))]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pages_checked"] == 20
    assert {mm["k"] for mm in report["mismatches"]} == set(range(3, 21))
