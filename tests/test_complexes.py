import json
from fractions import Fraction

import pytest

from filtcoh.complexes import (
    ComplexFormatError,
    FilteredComplex,
    GradedPiece,
    associated_graded,
    build_complex,
    parse_complex,
    relabel_complex,
    serialize_complex,
    shift_complex,
    validate,
    warnings,
)
from filtcoh.morse import QuantumEdge, TorusSpec, quantum_perturbed_torus, torus_complex
from conftest import random_complex


def _doc(**overrides):
    doc = {
        "sigma_maslov": 3,
        "lambda": "1/3",
        "r": "0",
        "generators": [
            {"id": "x", "action": "3/4", "maslov": 0},
            {"id": "y", "action": "1/2", "maslov": 1},
        ],
        "edges": [["x", "y"]],
    }
    doc.update(overrides)
    return doc


def test_parse_roundtrip():
    text = json.dumps(_doc())
    c = parse_complex(text)
    assert parse_complex(serialize_complex(c)) == c
    assert c.sigma_action == Fraction(1)


def test_parse_empty_complex():
    c = parse_complex(json.dumps(_doc(generators=[], edges=[])))
    assert c.generators == ()
    assert not validate(c)


def test_parse_single_generator():
    c = parse_complex(json.dumps(_doc(generators=[{"id": "x", "action": "1/2", "maslov": 0}], edges=[])))
    assert len(c.generators) == 1
    assert not validate(c)


def test_parse_malformed_json():
    with pytest.raises(ComplexFormatError, match="line"):
        parse_complex("{nope")


def test_parse_float_action_rejected():
    doc = _doc()
    doc["generators"][0]["action"] = 0.75
    with pytest.raises(ComplexFormatError, match="rational"):
        parse_complex(json.dumps(doc))


def test_parse_duplicate_id():
    doc = _doc(generators=[
        {"id": "x", "action": "3/4", "maslov": 0},
        {"id": "x", "action": "1/2", "maslov": 1},
    ])
    with pytest.raises(ComplexFormatError, match="duplicate"):
        parse_complex(json.dumps(doc))


def test_parse_unknown_edge_id():
    with pytest.raises(ComplexFormatError, match="unknown id"):
        parse_complex(json.dumps(_doc(edges=[["x", "zz"]])))


def test_parse_nonintegral_shift():
    # grade jump 2 with Sigma = 4: (2 - 1)/4 is not an integer
    doc = _doc(sigma_maslov=4, **{"lambda": "1/4"})
    doc["generators"][1]["maslov"] = 2
    with pytest.raises(ComplexFormatError, match="shift"):
        parse_complex(json.dumps(doc))


def test_parse_negative_shift():
    doc = _doc(sigma_maslov=3)
    doc["generators"][1]["maslov"] = -2
    with pytest.raises(ComplexFormatError, match="negative"):
        parse_complex(json.dumps(doc))


PAIR = [("x", "3/4", 0), ("y", "1/2", 1)]


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, "1/3", 0, [], []), "sigma_maslov must be >= 1"),
        ((3, "0", 0, [], []), "lambda must be positive"),
        ((3, "1/3", 0, [("x", "3/4", 0), ("x", "1/2", 1)], []), "duplicate generator id 'x'"),
        ((3, "1/3", 0, PAIR, [("x", "zz")]), "edge #0: unknown id 'zz'"),
        ((3, "1/3", 0, PAIR, [("x", "y"), ("x", "y")]), "duplicate edge ('x', 'y')"),
        (
            (4, "1/4", 0, [("x", "3/4", 0), ("y", "1/2", 2)], [("x", "y")]),
            "edge ('x', 'y'): grade jump 2 gives non-integral window shift",
        ),
        (
            (3, "1/3", 0, [("x", "3/4", 0), ("y", "1/2", -2)], [("x", "y")]),
            "edge ('x', 'y'): grade jump -2 gives negative window shift -1",
        ),
    ],
    ids=["sigma", "lambda", "distinct-ids", "edge-ids", "edge-duplicate", "shift-integrality", "shift-nonnegative"],
)
def test_construction_rejects_each_structural_rule_with_the_parse_message(args, message):
    with pytest.raises(ComplexFormatError) as built:
        build_complex(*args)
    sig, lam, r, gens, edges = args
    doc = {
        "sigma_maslov": sig,
        "lambda": lam,
        "r": str(r),
        "generators": [{"id": gid, "action": a, "maslov": n} for gid, a, n in gens],
        "edges": [list(e) for e in edges],
    }
    with pytest.raises(ComplexFormatError) as parsed:
        parse_complex(json.dumps(doc))
    assert str(built.value) == str(parsed.value) == message


def test_builders_reject_what_construction_rejects():
    c = build_complex(3, "1/3", 0, PAIR, [("x", "y")])
    with pytest.raises(ComplexFormatError, match="duplicate generator id 'z'"):
        relabel_complex(c, {"x": "z", "y": "z"})
    edge = QuantumEdge((), (1,), 1)
    with pytest.raises(ComplexFormatError, match="duplicate edge"):
        quantum_perturbed_torus(TorusSpec(m=1), [edge, edge])


def test_validate_torus_fixture_clean():
    assert validate(torus_complex(TorusSpec(m=2))) == []


def test_validate_action_monotonicity():
    c = build_complex(3, "1/3", 0, [("x", "1/4", 0), ("y", "1/2", 1)], [("x", "y")])
    rules = [v.rule for v in validate(c)]
    assert rules == ["action-monotone"]
    assert validate(c)[0].ids == ("x", "y")


def test_validate_delta_squared_parity():
    # chain x -> y -> z: one two-step path, odd parity
    c = build_complex(
        3,
        "1/3",
        0,
        [("x", "3/4", 0), ("y", "1/2", 1), ("z", "1/4", 2)],
        [("x", "y"), ("y", "z")],
    )
    bad = [v for v in validate(c) if v.rule == "delta-squared"]
    assert len(bad) == 1
    assert bad[0].ids[0] == "x" and "z" in bad[0].ids


def test_validate_window_membership():
    c = build_complex(3, "1/3", 0, [("x", "2", 0)], [])
    assert [v.rule for v in validate(c)] == ["action-window"]


def test_validate_action_at_cut_value():
    # action congruent to r would sit on the window boundary
    c = build_complex(3, "1/3", 0, [("x", "0", 0)], [])
    assert [v.rule for v in validate(c)] == ["action-window"]


def test_sigma_low_warning():
    assert warnings(torus_complex(TorusSpec(m=1))) != []
    assert warnings(build_complex(3, "1/3", 0, [], [])) == []


def test_associated_graded_torus_m2():
    c = torus_complex(TorusSpec(m=2))
    pieces = associated_graded(c)
    assert [(n, len(p.generators)) for n, p, _ in pieces] == [(-2, 1), (-1, 2), (0, 1)]
    assert all(mat.is_zero() for _, _, mat in pieces)


def test_associated_graded_keeps_shift0_drops_higher():
    c = build_complex(
        2,
        "1/2",
        0,
        [("a", "7/8", 0), ("b", "5/8", 1), ("c", "3/8", 3)],
        [("a", "b"), ("a", "c")],
    )
    assert not validate(c)
    pieces = {n: mat for n, _, mat in associated_graded(c)}
    assert pieces[0].rank() == 1  # a -> b survives
    assert pieces[1].is_zero() and pieces[3].is_zero()  # a -> c has shift 1


def test_associated_graded_matrices_are_the_grade_one_edges(rng):
    for _ in range(25):
        c = random_complex(rng, max_gens=20)
        pieces = associated_graded(c)
        assert [n for n, _, _ in pieces] == list(c.occupied_grades())
        for n, piece, mat in pieces:
            src = [g.id for g in c.generators if g.maslov == n]
            dst = [g.id for g in c.generators if g.maslov == n + 1]
            assert piece == GradedPiece(n, tuple(src))
            assert (mat.rows, mat.cols) == (len(dst), len(src))
            assert sorted(mat.entries()) == sorted(
                (dst.index(b), src.index(a)) for a, b in c.edges if a in src and b in dst
            )


def test_total_coboundary_raises_grade_by_one_plus_multiples(rng):
    for _ in range(25):
        c = random_complex(rng, max_gens=20)
        for a, b in c.edges:
            jump = c.grade(b) - c.grade(a)
            assert jump >= 1 and (jump - 1) % c.sigma_maslov == 0


def test_window_invariant_under_safe_r_perturbation(rng):
    for _ in range(25):
        c = random_complex(rng, max_gens=20)
        if not c.generators:
            continue
        sigma = c.sigma_action
        # distance from r to the nearest action, modulo sigma, both directions
        gaps = []
        for g in c.generators:
            frac = (g.action - c.r) / sigma
            frac -= frac.numerator // frac.denominator  # now in [0, 1)
            gaps.append(frac)
        down = min(gaps) * sigma
        up = (1 - max(gaps)) * sigma
        eps = min(down, up) / 2
        assert eps > 0
        for direction in (1, -1):
            moved = FilteredComplex(
                c.sigma_maslov, c.lam, c.r + direction * eps, c.generators, c.edges
            )
            assert validate(moved) == []


def test_shift_complex_relabels_cleanly(rng):
    for _ in range(10):
        c = random_complex(rng, max_gens=16)
        s = shift_complex(c)
        assert validate(s) == []
        assert s.r == c.r + c.sigma_action
        assert [g.maslov for g in s.generators] == [
            g.maslov + c.sigma_maslov for g in c.generators
        ]


def test_serialize_integer_rationals_as_plain_strings():
    c = build_complex(2, "1/2", "-1/2", [("x", "0", 0)], [])
    data = json.loads(serialize_complex(c))
    assert data["generators"][0]["action"] == "0"
    assert data["r"] == "-1/2"


def test_roundtrip_random(rng):
    for _ in range(20):
        c = random_complex(rng, max_gens=16)
        assert parse_complex(serialize_complex(c)) == c


# -- the generator-to-bit encoding, against per-generator brute force ---------


def _bits(indices):
    return sum(2**i for i in set(indices))


def _brute_columns(c, pairs, target):
    """Column of generator a: the bits of the b paired with a an odd number of times."""
    cols = []
    for g in c.generators:
        odd = [t.id for t in target.generators if sum(p == (g.id, t.id) for p in pairs) % 2]
        cols.append(_bits(i for i, t in enumerate(target.generators) if t.id in odd))
    return cols


def _check_masks(c, lo, hi):
    sig = c.sigma_maslov
    for n in range(lo, hi + 1):
        assert c.grade_mask(n) == _bits(i for i, g in enumerate(c.generators) if g.maslov == n)
        assert c.filtration_mask(n) == _bits(
            i for i, g in enumerate(c.generators) if g.maslov >= n and (g.maslov - n) % sig == 0
        )


def test_encoding_primitives_match_brute_force(rng):
    for _ in range(40):
        c = random_complex(rng, max_gens=14)
        d = random_complex(rng, max_gens=14)
        grades = [g.maslov for g in c.generators] or [0]
        # every integer n from well below the lowest grade to above the top
        _check_masks(c, min(grades) - 2 * c.sigma_maslov - 1, max(grades) + c.sigma_maslov + 1)
        ids, other = [g.id for g in c.generators], [g.id for g in d.generators]
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 30))] if ids else []
        assert c.columns(pairs) == _brute_columns(c, pairs, c)
        assert c.delta_columns() == _brute_columns(c, list(c.edges), c)
        shift0 = [(a, b) for a, b in c.edges if c.grade(b) - c.grade(a) == 1]
        assert c.shift0_columns() == _brute_columns(c, shift0, c)
        if ids and other:
            cross = [(rng.choice(ids), rng.choice(other)) for _ in range(rng.randint(0, 30))]
            assert c.columns(cross, d) == _brute_columns(c, cross, d)
        for _ in range(5):
            v = rng.getrandbits(len(ids)) if ids else 0
            assert c.support_ids(v) == tuple(g for i, g in enumerate(ids) if (v >> i) & 1)


def test_encoding_primitives_on_edge_cases():
    empty = FilteredComplex(3, Fraction(1), Fraction(0), (), ())
    _check_masks(empty, -7, 7)
    assert empty.columns([]) == [] and empty.delta_columns() == [] and empty.support_ids(0) == ()
    # Sigma = 3 with grades 0, 3, 4: residue class 2 is empty
    c = build_complex(3, "1/3", 0, [("a", "1/2", 0), ("b", "1/3", 3), ("c", "1/4", 4)])
    _check_masks(c, -8, 8)
    assert c.filtration_mask(2) == c.filtration_mask(-1) == c.filtration_mask(-10) == 0
    assert c.filtration_mask(-3) == c.filtration_mask(0) == 0b011
    assert c.filtration_mask(1) == c.filtration_mask(-5) == 0b100
    assert c.filtration_mask(3) == 0b010 and c.filtration_mask(5) == 0
    assert c.grade_mask(1) == 0 and c.grade_mask(4) == 0b100
    # a pair listed twice cancels; the target complex indexes the bits
    assert c.columns([("a", "b"), ("a", "c"), ("a", "b")]) == [0b100, 0, 0]
    assert c.columns([("c", "z")], build_complex(3, "1/3", 0, [("y", "1/2", 0), ("z", "1/3", 0)])) == [0, 0, 0b10]
