"""The early stop of the page recursion, checked against the literal
recursion run up to the grade-span bound, plus a count gate on page
advances, the closed forms of the stop and the bound against the walks
they replace, the budget on the bound, and mutations of the stopping rule
and of the repair of deep representatives that the oracle must catch."""

import hashlib
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from filtcoh import spectral
from filtcoh.chain_maps import FilteredMap, _induced_on_states, identity_map, iso_on_pages
from filtcoh.cli import run
from filtcoh.complexes import FilteredComplex, Generator, build_complex, serialize_complex
from filtcoh.morse import QuantumEdge, TorusSpec, parse_matching, quantum_perturbed_torus
from filtcoh.obstruction import LaurentPoly, PreconditionError, check_page_recursion, rank_balance
from filtcoh.spectral import (
    _Engine,
    _differential_matrices,
    _initial_state,
    k_stable,
    oracle_comparison,
    page_dims,
    page_rows,
    pages_tsv,
    stabilization_bound,
)
from conftest import quantum_matching, random_complex
from test_page_outputs_pinned import PINNED_MORE


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
    assert [page_dims(c, k) for k in range(1, bound + 3)] == [dims for dims, _ in pages[1:]]
    assert page_dims(c, math.inf) == pages[bound][0]
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


# -- the stop and the bound in closed form -------------------------------------


def bound_by_walk(c: FilteredComplex) -> int:
    """stabilization_bound as the walk over k, the reference for its closed form."""
    grades = c.occupied_grades()
    if not grades:
        return 1
    span = grades[-1] - grades[0]
    k = 1
    while k * c.sigma_maslov + 1 <= span:
        k += 1
    return k


def test_stabilization_bound_matches_the_walk():
    # every Sigma in 1..6 and span in 0..200, which is all a drawn test could draw
    empty = build_complex(3, 1, 0, [])
    assert stabilization_bound(empty) == 1 == bound_by_walk(empty)
    for sig in range(1, 7):
        for span in range(201):
            c = build_complex(sig, 1, 0, [("a", "1/2", -7), ("b", "1/2", span - 7)])
            assert stabilization_bound(c) == bound_by_walk(c), (sig, span)


def degenerate_by_walk(eng, state) -> bool:
    """_degenerate as the walk over every grade between live cells, the reference."""
    live = [n for n in eng.grades if state.reps[n]]
    occupied = set(live)
    first = state.s * eng.sig + 1
    for n in live:
        for m in range(n + first, live[-1] + 1, eng.sig):
            if m in occupied:
                return False
    return True


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(1, 8), st.dictionaries(st.integers(-30, 60), st.booleans(), max_size=12))
def test_degenerate_matches_the_walk_over_the_grade_span(sig, s, cells):
    # occupied grades, each live (a nonzero cell of E^s) or not
    eng = SimpleNamespace(sig=sig, grades=sorted(cells))
    state = SimpleNamespace(s=s, reps={n: (1,) if live else () for n, live in cells.items()})
    assert spectral._degenerate(eng, state) == degenerate_by_walk(eng, state)


# -- count gate and mutation ---------------------------------------------------


def quantum_torus(m: int) -> FilteredComplex:
    spec = TorusSpec(m=m, lam=Fraction(2, 3), r=Fraction(1))
    return quantum_perturbed_torus(spec, parse_matching(quantum_matching(m), m))


def test_page_readers_default_to_the_stabilization_bound():
    q = quantum_torus(5)
    bound = stabilization_bound(q)
    assert bound == 20
    assert page_rows(q) == page_rows(q, bound)
    assert pages_tsv(q) == pages_tsv(q, bound)
    assert oracle_comparison(q) == oracle_comparison(q, bound)
    assert [row[0] for row in oracle_comparison(q)] == list(range(1, bound + 1))


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


def test_pages_einfty_advance_count_gate(advances, capsys, tmp_path):
    # the limit page is read at the stop E^3, and k is still the bound
    assert run(["pages", write(tmp_path, quantum_torus(5)), "--einfty"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["k"] == 20
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MORE["quantum5"]["pages-einfty"][1]
    assert advances[0] <= 3


def test_pages_reads_only_the_pages_asked_for(advances, capsys, tmp_path):
    # quantum T^5 stops at E^3; two pages need two advances and no look past them
    assert run(["pages", write(tmp_path, quantum_torus(5)), "--max-k", "2"]) == 0
    assert [row["k"] for row in json.loads(capsys.readouterr().out)["pages"]][-1] == 2
    assert advances[0] <= 2


def test_poly_reads_dimensions_only_up_to_the_stop(advances, capsys, tmp_path):
    # quantum T^5 stops at E^3, so E^2000 has the dimensions of E^3
    path = write(tmp_path, quantum_torus(5))
    assert run(["poly", path, "--k", "2000"]) == 0
    far = json.loads(capsys.readouterr().out)
    assert advances[0] <= 3
    assert run(["poly", path, "--k", "3"]) == 0
    assert far == {**json.loads(capsys.readouterr().out), "k": 2000}


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


# -- the budget on the stabilization bound --------------------------------------

FAR = 10**9  # a grade gap whose bound would take ~3.3e8 pages to walk


def far_complexes() -> dict[str, FilteredComplex]:
    matching = parse_matching({"matching": [{"from": [], "to": [1], "shift": FAR}]}, 2)
    return {
        "two cells": build_complex(3, 1, 0, [("a", "1/2", 0), ("z", "1/2", FAR)]),
        "with an edge": build_complex(3, 1, 0, [("a", "3/4", 0), ("b", "1/2", 1), ("z", "1/2", FAR)], [("a", "b")]),
        "quantum T^2": quantum_perturbed_torus(TorusSpec(m=2, sigma_maslov=4), matching),
    }


PAGE_VERBS = (
    ("kl",), ("pages",), ("pages", "--tsv"), ("pages", "--einfty"), ("pages", "--max-k", "2"), ("oracle",),
    ("oracle", "--max-k", "2"), ("poly", "--k", "2"), ("recursion",), ("recursion", "--balance"),
)


@pytest.mark.parametrize("name", sorted(far_complexes()))
def test_page_verbs_refuse_a_bound_past_the_budget(advances, capsys, tmp_path, name):
    c = far_complexes()[name]
    bound = stabilization_bound(c)
    assert bound > spectral.MAX_STABILIZATION_BOUND
    path = write(tmp_path, c)
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({"entries": [[g.id, g.id] for g in c.generators]}))
    refused = f"error: stabilization bound {bound} must be <= {spectral.MAX_STABILIZATION_BOUND}\n"
    for verb, *rest in (*PAGE_VERBS, ("mapcheck", path, str(ident), "--pages")):
        assert run([verb, path, *rest]) == 2, (verb, *rest)
        out, err = capsys.readouterr()
        if rest == ["--balance"] and c.sigma_maslov % 2:
            refused_here = f"precondition failure: rank balance needs an even Maslov period, got {c.sigma_maslov}\n"
        else:
            refused_here = refused
        assert (out, err) == ("", refused_here), (verb, *rest)
    assert advances[0] == 0


def test_a_bound_at_the_budget_still_runs(capsys, tmp_path):
    far = spectral.MAX_STABILIZATION_BOUND
    path = write(tmp_path, build_complex(3, 1, 0, [("a", "1/2", 0), ("z", "1/2", 3 * far)]))
    assert run(["kl", path]) == 0 and json.loads(capsys.readouterr().out) == {"k_stable": 1}
    assert run(["pages", path, "--einfty"]) == 0
    assert json.loads(capsys.readouterr().out) == {"k": far, "cells": [[0, 0, 1], [3 * far, 0, 1]]}


# Two of the few small complexes on which skipping the repair shows:
# conftest.random_complex(random.Random(seed), max_gens=12) for seeds 2014
# and 713. On most complexes where the repair changes a representative, the
# unrepaired one happens to give the same dimensions and ranks.
REPAIR_CASES = {
    "mismatch": (
        (5, 2, -3,
         [("g0", 4, 5), ("g1", 1, 12), ("g2", 0, 12), ("g3", -2, 14), ("g4", 6, -1),
          ("g5", 2, 11), ("g6", 3, 10), ("g7", 5, 3), ("g8", -1, 13)],
         [("g0", "g5"), ("g1", "g8"), ("g4", "g0"), ("g4", "g6"), ("g6", "g5"), ("g7", "g3")]),
        1,
    ),
    "escape": (
        (6, 1, 0,
         [("g0", "54/11", 2), ("g1", "24/11", 8), ("g2", "12/11", 14), ("g3", "18/11", 11),
          ("g4", "48/11", 2), ("g5", "6/11", 16), ("g6", "36/11", 7), ("g7", "60/11", 1),
          ("g8", "30/11", 7), ("g9", "42/11", 5)],
         [("g6", "g1"), ("g7", "g1"), ("g7", "g2")]),
        3,
    ),
}


@pytest.mark.parametrize("case", sorted(REPAIR_CASES))
def test_oracle_catches_a_skipped_repair(monkeypatch, capsys, tmp_path, case):
    args, mutant_code = REPAIR_CASES[case]
    path = write(tmp_path, build_complex(*args))
    repair = spectral._repairer
    changed = []

    def spied(eng, denom, k, n):
        inner = repair(eng, denom, k, n)

        def counted(v):
            w = inner(v)
            changed.append(w != v)
            return w

        return counted

    monkeypatch.setattr(spectral, "_repairer", spied)
    assert run(["oracle", path]) == 0
    assert any(changed)  # the real repair moved a representative
    capsys.readouterr()
    monkeypatch.setattr(spectral, "_repairer", lambda eng, denom, k, n: lambda v: v)
    assert run(["oracle", path]) == mutant_code
    out, err = capsys.readouterr()
    if mutant_code == 1:
        assert json.loads(out)["mismatches"] and err == ""
    else:
        assert out == "" and err.count("\n") == 1 and err.startswith("internal error: InternalError: ")
