import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from filtcoh import chain_maps, cli, cohomology, complexes, gf2, maslov, morse, obstruction, spectral
from filtcoh.cli import OP_TO_VERB, VERBS, _emit, build_parser, run
from filtcoh.complexes import build_complex, serialize_complex
from filtcoh.morse import TorusSpec, torus_complex
from conftest import hall_violated, src_env


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name: str, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# a closed loop of Lagrangian lines in C^1 with Maslov index 1
HALF_TURN = [[[math.cos(math.pi * k / 16)], [math.sin(math.pi * k / 16)]] for k in range(16)]


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus2.json"
    path.write_text(serialize_complex(torus_complex(TorusSpec(m=2))))
    return str(path)


def test_validate_ok(capsys, torus_file):
    code, out, _ = run_cli(capsys, "validate", torus_file)
    assert code == 0
    assert json.loads(out) == {"violations": []}


def test_validate_bad_edge(capsys, tmp_path):
    c = build_complex(3, "1/3", 0, [("x", "1/4", 0), ("y", "1/2", 1)], [("x", "y")])
    path = tmp_path / "bad.json"
    path.write_text(serialize_complex(c))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["violations"][0]["rule"] == "action-monotone"
    assert report["violations"][0]["ids"] == ["x", "y"]


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{natural language")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_unknown_verb_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_unknown_flag_exits_2(capsys, torus_file):
    assert run_cli(capsys, "cohom", torus_file, "--nope")[0] == 2


def test_cohom_reports_binomials(capsys, torus_file):
    code, out, _ = run_cli(capsys, "cohom", torus_file, "--pieces")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == [[-2, 1], [-1, 2], [0, 1]]
    assert [p["n"] for p in report["pieces"]] == [-2, -1, 0]


def test_hf_output(capsys, torus_file):
    code, out, _ = run_cli(capsys, "hf", torus_file)
    assert code == 0
    report = json.loads(out)
    assert report["hf"]["dims"] == [[0, 2], [1, 2]]


def test_pages_tsv_and_json(capsys, torus_file):
    code, out, _ = run_cli(capsys, "pages", torus_file, "--tsv", "--max-k", "2")
    assert code == 0
    assert out.splitlines()[0] == "k\tn\tj\tdim\trank_dk"
    code, out, _ = run_cli(capsys, "pages", torus_file, "--max-k", "1")
    assert json.loads(out)["pages"][0]["k"] == 1


def test_pages_einfty(capsys, torus_file):
    code, out, _ = run_cli(capsys, "pages", torus_file, "--einfty")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert sum(d for _, _, d in cells) == 4


def test_kl_and_oracle(capsys, torus_file):
    code, out, _ = run_cli(capsys, "kl", torus_file)
    assert code == 0 and json.loads(out) == {"k_stable": 1}
    code, out, _ = run_cli(capsys, "oracle", torus_file)
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_poly_and_recursion(capsys, torus_file):
    code, out, _ = run_cli(capsys, "poly", torus_file, "--k", "1")
    assert code == 0
    assert json.loads(out)["poly"] == [[-2, 1], [-1, 2], [0, 1]]
    code, out, _ = run_cli(capsys, "recursion", torus_file)
    assert code == 0 and json.loads(out)["violations"] == []


def test_recursion_balance_precondition(capsys, torus_file):
    code, _, err = run_cli(capsys, "recursion", torus_file, "--balance")
    assert code == 2
    assert "precondition" in err


def test_decomp_witness_and_none(capsys):
    code, out, _ = run_cli(
        capsys, "decomp", "--target", "[[0,1],[1,1],[3,1],[4,1]]", "--sigma", "2", "--k", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "witness" and report["verified"]
    code, out, _ = run_cli(capsys, "decomp", "--m", "4", "--sigma", "4", "--k", "1")
    assert code == 1
    assert json.loads(out)["status"] == "none"


def test_decomp_none_by_exact_division_at_m1500(capsys):
    # k = 1 runs as forced chains, so m = 1500 exponents need no deep stack
    code, out, _ = run_cli(capsys, "decomp", "--m", "1500", "--sigma", "3", "--k", "1")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "none" and report["nodes"] == 0
    target = {e: math.comb(1500, e) for e in range(1501)}
    assert hall_violated(target, 3, 1, report["certificate"]["exponents"])


def test_decomp_flow_certificate(capsys):
    code, out, _ = run_cli(capsys, "decomp", "--m", "11", "--sigma", "3", "--k", "3")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "none" and report["nodes"] == 0
    target = {e: math.comb(11, e) for e in range(12)}
    assert hall_violated(target, 3, 3, report["certificate"]["exponents"])


def test_decomp_search_budget_exits_2(capsys, monkeypatch):
    # Sigma = 1: the flow leaves (1+t)^8 to the top-down search (26754 nodes)
    monkeypatch.setattr(obstruction, "DFS_NODE_BUDGET", 1000)
    code, out, err = run_cli(capsys, "decomp", "--m", "8", "--sigma", "1", "--k", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "budget of 1000 nodes" in err


def test_parser_is_reused_without_leaking_state(capsys, torus_file):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "pages", torus_file, "--einfty")
    assert code == 0 and set(json.loads(out)) == {"k", "cells"}
    code, out, _ = run_cli(capsys, "pages", torus_file, "--max-k", "1")
    assert code == 0 and set(json.loads(out)) == {"pages"}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["pages", torus_file, "--max-k", "one"]) == 2
    assert "invalid int value" in err.getvalue()
    assert capsys.readouterr().err == ""


def test_decomp_argument_exclusivity(capsys):
    assert run_cli(capsys, "decomp", "--sigma", "2", "--k", "1")[0] == 2
    assert run_cli(capsys, "decomp", "--m", "3", "--target", "[[0,1]]", "--sigma", "2", "--k", "1")[0] == 2


def test_binom(capsys):
    code, out, _ = run_cli(capsys, "binom", "--m", "4", "--N", "2")
    assert code == 0 and json.loads(out)["value"] == 3


def test_emit_writes_ints_past_the_digit_limit(capsys):
    value = 7 * 10**4999 + 3  # 5000 digits, past the default limit of 4300
    limit = sys.get_int_max_str_digits()
    _emit({"value": value})
    out = capsys.readouterr().out
    # the limit is back in force for everything else, input parsing included
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        int("1" * 5000)
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out) == {"value": value}
    finally:
        sys.set_int_max_str_digits(limit)


def test_audin(capsys):
    code, out, err = run_cli(capsys, "audin", "--m", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == 2 and report["m"] == 2
    code, out, _ = run_cli(capsys, "audin", "--m", "3", "--table")
    assert code == 0 and "verdict: Sigma(L) = 2" in out


def test_maslov_verbs(capsys, tmp_path):
    frames = []
    for k in range(64):
        t = k / 64
        frames.append([[math.cos(math.pi * t)], [math.sin(math.pi * t)]])
    path = tmp_path / "halfturn.json"
    path.write_text(json.dumps({"m": 1, "closed": True, "samples": frames}))
    code, out, _ = run_cli(capsys, "maslov", "index", str(path))
    assert code == 0 and json.loads(out)["index"] == 1

    code, out, _ = run_cli(capsys, "maslov", "kunneth", str(path), str(path))
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 2 and report["left"] == report["right"] == 1

    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps({"classes": [["1", 2], ["3", 6]]}))
    code, out, _ = run_cli(capsys, "maslov", "monotone", str(classes))
    assert code == 0
    assert json.loads(out) == {"monotone": True, "sigma": "1", "Sigma": 2, "lambda": "1/2"}

    bad = tmp_path / "bad_classes.json"
    bad.write_text(json.dumps({"classes": [["1", 2], ["1", 4]]}))
    code, out, _ = run_cli(capsys, "maslov", "monotone", str(bad))
    assert code == 1 and json.loads(out)["monotone"] is False

    code, out, _ = run_cli(capsys, "maslov", "lift", "--a", "1/2", "--r", "3/4", "--sigma", "2")
    assert code == 0 and json.loads(out) == {"action": "5/2", "shift": 1}

    code, out, _ = run_cli(capsys, "maslov", "compat", str(classes), "--index", "6", "--a", "3")
    assert code == 0 and json.loads(out)["compatible"] is True


def test_mapcheck(capsys, tmp_path, torus_file):
    c = torus_complex(TorusSpec(m=2))
    mapping = {g.id: g.id for g in c.generators}
    map_path = tmp_path / "ident.json"
    map_path.write_text(json.dumps({"entries": [[a, b] for a, b in mapping.items()]}))
    code, out, _ = run_cli(
        capsys, "mapcheck", torus_file, torus_file, str(map_path), "--pages"
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert all(report["iso_on_pages"].values())


def test_gen_pipe_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gen", "torus", "--m", "3")
    assert code == 0
    c = complexes.parse_complex(out)
    assert len(c.generators) == 8


def test_gen_quantum(capsys, tmp_path):
    matching = tmp_path / "matching.json"
    matching.write_text(
        json.dumps(
            {
                "matching": [
                    {"from": [], "to": [1, 2], "shift": 1},
                    {"from": [1], "to": [2], "shift": 1},
                ]
            }
        )
    )
    code, out, _ = run_cli(capsys, "gen", "torus", "--m", "2", "--quantum", str(matching))
    assert code == 0
    c = complexes.parse_complex(out)
    assert len(c.edges) == 2


@pytest.mark.parametrize("flag", [True, False])
def test_gen_quantum_refuses_boolean_generators(capsys, tmp_path, flag):
    # true used to read as generator 1, and the file gave a complex with exit 0
    matching = write_json(tmp_path, "matching.json", {"matching": [{"from": [flag], "to": [2, flag], "shift": 0}]})
    code, out, err = run_cli(capsys, "gen", "torus", "--m", "2", "--quantum", matching)
    assert code == 2 and out == ""
    assert err == "error: matching entry #0: from must be a list of ints\n"


@pytest.mark.parametrize("side, entry", [("from", {"from": [2, 2], "to": [1, 2]}), ("to", {"from": [1], "to": [2, 2]})])
def test_gen_quantum_refuses_a_repeated_subset_member(capsys, tmp_path, side, entry):
    # [2, 2] used to read as the subset {2}, and the file gave a complex with exit 0
    matching = write_json(tmp_path, "matching.json", {"matching": [dict(entry, shift=0)]})
    code, out, err = run_cli(capsys, "gen", "torus", "--m", "2", "--quantum", matching)
    assert code == 2 and out == ""
    assert err == f"error: matching entry #0: {side} names member 2 twice\n"


def test_pipeline_subprocess():
    gen = subprocess.run(
        [sys.executable, "-m", "filtcoh.cli", "gen", "torus", "--m", "2"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert gen.returncode == 0
    cohom = subprocess.run(
        [sys.executable, "-m", "filtcoh.cli", "cohom"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert cohom.returncode == 0
    assert json.loads(cohom.stdout)["dims"] == [[-2, 1], [-1, 2], [0, 1]]


def test_cli_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, filtcoh.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_byte_identical_outputs(torus_file):
    outs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "filtcoh.cli", "pages", torus_file, "--tsv", "--max-k", "3"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def verb_runs(tmp_path, cx: str) -> dict[str, list[tuple[str, ...]]]:
    """Per verb, argv lists that together reach every branch OP_TO_VERB
    names, on the complex file cx (an acyclic quantum torus)."""
    c = complexes.parse_complex(open(cx).read())
    ident = write_json(tmp_path, "ident.json", {"entries": [[g.id, g.id] for g in c.generators]})
    zero = write_json(tmp_path, "zero.json", {"entries": []})
    loop = write_json(tmp_path, "loop.json", {"m": 1, "closed": True, "samples": HALF_TURN})
    classes = write_json(tmp_path, "classes.json", {"classes": [["1", 2], ["3", 6]]})
    matching = write_json(tmp_path, "matching.json", {"matching": [{"from": [], "to": [1, 2], "shift": 1}]})
    return {
        "validate": [("validate", cx)],
        "cohom": [("cohom", cx, "--pieces")],
        "hf": [("hf", cx)],
        "pages": [("pages", cx, "--einfty"), ("pages", cx), ("pages", cx, "--tsv")],
        "kl": [("kl", cx)],
        "oracle": [("oracle", cx)],
        "poly": [("poly", cx, "--k", "2")],
        "recursion": [("recursion", cx), ("recursion", cx, "--balance")],
        "decomp": [("decomp", "--m", "4", "--sigma", "2", "--k", "1")],
        "binom": [("binom", "--m", "4", "--N", "2")],
        "audin": [("audin", "--m", "2")],
        "maslov": [
            ("maslov", "index", loop),
            ("maslov", "kunneth", loop, loop),
            ("maslov", "monotone", classes),
            ("maslov", "lift", "--a", "1/2", "--r", "3/4", "--sigma", "2"),
            ("maslov", "compat", classes, "--index", "6", "--a", "3"),
        ],
        "mapcheck": [
            ("mapcheck", cx, cx, ident, "--pages", "--homotopy", zero, "--other", ident),
        ],
        "gen": [("gen", "torus", "--m", "2"), ("gen", "torus", "--m", "2", "--quantum", matching)],
    }


def test_verb_coverage_table(capsys, monkeypatch, tmp_path, quantum_file):
    assert set(OP_TO_VERB.values()) == set(VERBS)
    surfaces = {
        "parse_complex": complexes.parse_complex,
        "validate": complexes.validate,
        "associated_graded": complexes.associated_graded,
        "integer_graded_cohomology": cohomology.integer_graded_cohomology,
        "zsigma_cohomology": cohomology.zsigma_cohomology,
        "hf_filtration": cohomology.hf_filtration,
        "page_rows": spectral.page_rows,
        "pages_tsv": spectral.pages_tsv,
        "k_stable": spectral.k_stable,
        "oracle_comparison": spectral.oracle_comparison,
        "page_dims": spectral.page_dims,
        "check_page_recursion": obstruction.check_page_recursion,
        "rank_balance": obstruction.rank_balance,
        "decomposition_search": obstruction.decomposition_search,
        "alternating_binomial_sum": obstruction.alternating_binomial_sum,
        "audin_decide": obstruction.audin_decide,
        "maslov_loop_index": maslov.maslov_loop_index,
        "kunneth_index": maslov.kunneth_index,
        "monotone_constants": maslov.monotone_constants,
        "window_lift": maslov.window_lift,
        "compatibility_check": maslov.compatibility_check,
        "verify_cochain_map": chain_maps.verify_cochain_map,
        "verify_homotopy": chain_maps.verify_homotopy,
        "iso_on_pages": chain_maps.iso_on_pages,
        "torus_complex": morse.torus_complex,
        "quantum_perturbed_torus": morse.quantum_perturbed_torus,
    }
    assert all(callable(fn) for fn in surfaces.values())

    # spy every operation wherever a module holds it, cli's own imports included
    verb, calls = [None], set()
    holders = (cli, complexes, cohomology, spectral, obstruction, maslov, chain_maps, morse)
    for op, fn in surfaces.items():
        def spy(*args, _op=op, _fn=fn, **kwargs):
            calls.add((_op, verb[0]))
            return _fn(*args, **kwargs)

        for mod in holders:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, spy)

    runs = verb_runs(tmp_path, quantum_file)
    assert set(runs) == set(VERBS)
    for verb[0], argvs in runs.items():
        for argv in argvs:
            assert run(list(argv)) in (0, 1), argv
    capsys.readouterr()
    # each row names a function that its verb calls
    assert sorted((op, v) for op, v in OP_TO_VERB.items() if (op, v) not in calls) == []
    # and every operation of the audit list has a row
    assert set(OP_TO_VERB) == set(surfaces)


@pytest.fixture
def quantum_file(tmp_path):
    # Sigma = 4 draws no period warning, so stderr carries only the verdict
    q = morse.quantum_perturbed_torus(
        TorusSpec(m=2, sigma_maslov=4),
        [morse.QuantumEdge((), (1, 2), 1), morse.QuantumEdge((1,), (2,), 1)],
    )
    path = tmp_path / "quantum2.json"
    path.write_text(serialize_complex(q))
    return str(path)


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch, quantum_file):
    class Lost:
        def solve(self, v):
            return None

    monkeypatch.setattr(gf2, "coset_solver", lambda reps, denom: Lost())
    code, out, err = run_cli(capsys, "kl", quantum_file)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: InternalError: d^1 escaped the target cell")
    assert "page 1, cell (n, j) = (-2, 2)" in err and "'x00'" in err
    # library callers still see an AssertionError
    with pytest.raises(AssertionError, match="page recursion is inconsistent"):
        spectral.k_stable(complexes.parse_complex(open(quantum_file).read()))


def test_engine_value_error_exits_3_not_2(capsys, monkeypatch, quantum_file):
    # a ValueError from inside the engine, here a failed shape check of the
    # GF(2) core, is a fault of the program, not bad input
    def broken(self):
        raise ValueError("row count mismatch")

    monkeypatch.setattr(gf2.BitMatrix, "kernel_basis", broken)
    code, out, err = run_cli(capsys, "kl", quantum_file)
    assert code == 3 and out == ""
    assert err == "internal error: ValueError: row count mismatch\n"


def test_input_errors_outside_the_parsers_exit_2(capsys, tmp_path):
    # bad input that surfaced as a plain ValueError from the standard library
    # or numpy, which exit 2 only as input errors now that a ValueError from
    # the engine exits 3
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff{}")
    long_int = tmp_path / "long.json"
    long_int.write_text('{"sigma_maslov": ' + "9" * 5000 + "}")
    nan = write_json(tmp_path, "nan.json", {"m": 1, "closed": True, "samples": [[[math.nan], [0]], [[1], [0]]]})
    for argv, message in [
        (("validate", str(undecodable)), "error: 'utf-8' codec can't decode byte 0xff"),
        (("validate", str(long_int)), "error: Exceeds the limit"),
        (("maslov", "index", nan), "error: sample #0 has a NaN entry"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(message)


def test_gen_torus_dimension_budget_exits_2_before_allocating(capsys, monkeypatch, tmp_path):
    def allocated(self):
        pytest.fail("the jitters of a torus past the budget were built")

    monkeypatch.setattr(morse.TorusSpec, "jitters", allocated)
    matching = write_json(tmp_path, "matching.json", {"matching": [{"from": [], "to": [1], "shift": 1}]})
    for argv in (("--m", "64"), ("--m", str(morse.MAX_TORUS_DIM + 1)), ("--m", "64", "--quantum", matching)):
        code, out, err = run_cli(capsys, "gen", "torus", *argv)
        assert code == 2 and out == ""
        assert err == f"error: torus dimension must be <= {morse.MAX_TORUS_DIM} (2^m generators)\n"


def test_audin_consistency_check_survives_python_O():
    # a vanishing truncated sum must stop the verdict even where -O strips asserts
    child = (
        "import sys; from filtcoh import cli, obstruction; "
        "obstruction.alternating_binomial_sum = lambda m, n: 0; "
        "sys.exit(cli.run(['audin', '--m', '9']))"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "internal error: AssertionError: a truncated alternating sum vanishes for m = 9, Sigma = 4\n"


def test_unexpected_exception_exits_3(capsys, monkeypatch, quantum_file):
    def boom(c):
        raise RuntimeError("lost cell\n  second line")

    monkeypatch.setattr(spectral, "k_stable", boom)
    code, out, err = run_cli(capsys, "kl", quantum_file)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: lost cell second line\n"


@pytest.mark.parametrize(
    "argv",
    [
        # a repeated exponent used to keep only its last pair: 1 + t^4, "witness"
        ("--target", "[[0,1],[0,1],[4,1]]"),
        ("--target", "[[0,0.7]]"),  # used to truncate to 0
        ("--target", "[[0,true]]"),  # used to read as 1
        ("--target", "[[true,1]]"),
        ("--target", "5"),  # used to exit 3 with a TypeError
        ("--target", "[null]"),  # used to exit 3 with a TypeError
        ("--target", "[[0,1,2]]"),
        ("--target", '{"0": 1}'),
        ("--m", "-3"),  # used to answer "witness" for an empty target
    ],
)
def test_decomp_rejects_malformed_targets(capsys, argv):
    code, out, err = run_cli(capsys, "decomp", *argv, "--sigma", "3", "--k", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_decomp_target_with_distinct_exponents(capsys):
    code, out, _ = run_cli(capsys, "decomp", "--target", "[[4,1],[0,2]]", "--sigma", "3", "--k", "1")
    assert code == 1
    report = json.loads(out)
    assert report["target"] == [[0, 2], [4, 1]] and report["certificate"] == {"exponents": [0]}
    code, out, _ = run_cli(capsys, "decomp", "--m", "0", "--sigma", "3", "--k", "1")
    assert code == 1 and json.loads(out)["target"] == [[0, 1]]


def test_oracle_max_k_zero_exits_2(capsys, torus_file):
    for verb in ("oracle", "pages"):
        code, out, err = run_cli(capsys, verb, torus_file, "--max-k", "0")
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: max_k must be >= 1"
    with pytest.raises(ValueError, match="max_k must be >= 1"):
        spectral.oracle_comparison(torus_complex(TorusSpec(m=2)), 0)


@pytest.mark.parametrize("verb", ["pages", "oracle"])
@pytest.mark.parametrize("max_k", [spectral.MAX_STABILIZATION_BOUND + 1, 10**9])
def test_explicit_max_k_budget_exits_2_before_any_page(capsys, monkeypatch, torus_file, verb, max_k):
    def computed(c):
        pytest.fail("a page was computed for a --max-k past the budget")

    monkeypatch.setattr(spectral, "_Engine", computed)
    code, out, err = run_cli(capsys, verb, torus_file, "--max-k", str(max_k))
    assert code == 2 and out == ""
    refused = f"max_k must be <= {spectral.MAX_STABILIZATION_BOUND}"
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {refused}"]
    readers = {"pages": (spectral.page_rows, spectral.pages_tsv), "oracle": (spectral.oracle_comparison,)}
    for reader in readers[verb]:
        with pytest.raises(complexes.InputError, match=refused):
            reader(torus_complex(TorusSpec(m=2)), max_k)


@pytest.mark.parametrize(
    "argv, budget",
    [
        (("decomp", "--m", "{}", "--sigma", "3", "--k", "1"), obstruction.MAX_BINOMIAL_POWER),
        (("decomp", "--m", "4", "--sigma", "3", "--k", "{}"), obstruction.MAX_BINOMIAL_POWER),
        (("binom", "--m", "{}", "--N", "{}"), obstruction.MAX_BINOMIAL_SUM_M),
        (("audin", "--m", "{}"), obstruction.MAX_AUDIN_DIM),
    ],
    ids=["decomp", "decomp-k", "binom", "audin"],
)
@pytest.mark.parametrize("excess", [1, 10**9])
def test_size_budgets_exit_2_before_allocating(capsys, argv, budget, excess):
    build_parser()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *(a.format(budget + excess) for a in argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith(f"<= {budget}\n")
    assert peak < 2**20


def test_mapcheck_loads_a_shared_path_once(capsys, monkeypatch, tmp_path, torus_file):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return complexes.parse_complex(text)

    monkeypatch.setattr(cli, "parse_complex", counting_parse)
    text = open(torus_file).read()
    ids = [g.id for g in complexes.parse_complex(text).generators]
    map_path = tmp_path / "ident.json"
    map_path.write_text(json.dumps({"entries": [[g, g] for g in ids]}))

    code, out, err = run_cli(capsys, "mapcheck", torus_file, torus_file, str(map_path), "--pages")
    assert code == 0 and json.loads(out)["violations"] == []
    assert len(calls) == 1
    # T^2 has Sigma = 2: its period warning is printed once, not once per end
    assert err.count("warning: sigma_maslov = 2") == 1

    # both ends on stdin: read once, so the target is not an empty second read
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out2, err = run_cli(capsys, "mapcheck", "-", "-", str(map_path), "--pages")
    assert code == 0 and out2 == out
    assert len(calls) == 2 and err.count("warning:") == 1

    # distinct paths still load both ends
    other = tmp_path / "copy.json"
    other.write_text(text)
    code, out3, _ = run_cli(capsys, "mapcheck", torus_file, str(other), str(map_path), "--pages")
    assert code == 0 and out3 == out and len(calls) == 4


@pytest.mark.parametrize(
    "field",
    [
        {"m": "2"},  # used to exit 3 with a TypeError
        {"m": True},
        {"samples": 5},  # used to exit 3 with a TypeError
        {"samples": [{"x": 1}, {"x": 2}]},  # used to exit 3 with a TypeError
        {"closed": "no"},  # used to read as closed and answer with exit 0
        {"samples": [[[True], [False]], *HALF_TURN[1:]]},  # used to read as 1.0, 0.0 and answer 1
        {"samples": [[["1"], [0]], *HALF_TURN[1:]]},  # used to read as 1.0 and answer 1
        {"samples": [[[None], [0]], *HALF_TURN[1:]]},  # used to report a NaN entry
        {"samples": [[[10**400], [0]], *HALF_TURN[1:]]},  # used to exit 3 with an OverflowError
    ],
)
def test_maslov_index_rejects_malformed_path_files(capsys, tmp_path, field):
    path = write_json(tmp_path, "path.json", {"m": 1, "closed": True, "samples": HALF_TURN, **field})
    code, out, err = run_cli(capsys, "maslov", "index", path)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "classes",
    [
        3,  # used to exit 3 with a TypeError
        [5],  # used to exit 3 with a TypeError
        [["1/2", None]],  # used to exit 3 with a TypeError
        [["1/2", 2.7]],  # used to truncate to 2 and answer Sigma = 2, lambda = 1/4
        [["1/2", True]],  # used to read as 1
        [["1/2", 2, 3]],
    ],
)
def test_maslov_monotone_rejects_malformed_classes(capsys, tmp_path, classes):
    path = write_json(tmp_path, "classes.json", {"classes": classes})
    code, out, err = run_cli(capsys, "maslov", "monotone", path)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_maslov_well_formed_inputs_still_answer(capsys, tmp_path):
    path = write_json(tmp_path, "path.json", {"m": 1, "closed": True, "samples": HALF_TURN})
    code, out, _ = run_cli(capsys, "maslov", "index", path)
    assert code == 0 and json.loads(out) == {"index": 1}
    path = write_json(tmp_path, "classes.json", {"classes": [["1/2", 2]]})
    code, out, _ = run_cli(capsys, "maslov", "monotone", path)
    assert code == 0 and json.loads(out) == {"monotone": True, "sigma": "1/2", "Sigma": 2, "lambda": "1/4"}


@pytest.mark.parametrize("argv", [("--max-k", "0"), ("--max-k", "5000"), ("--max-k", "3"), ("--tsv",)])
def test_pages_einfty_takes_neither_max_k_nor_tsv(capsys, torus_file, argv):
    code, out, err = run_cli(capsys, "pages", torus_file, "--einfty", *argv)
    assert code == 2 and out == ""
    assert err == "error: pages --einfty takes neither --max-k nor --tsv\n"


@pytest.mark.parametrize("excess", [1, 10**9])
def test_decomp_target_exponent_budget_exits_2_before_the_search(capsys, monkeypatch, excess):
    def read(self, e):
        pytest.fail("a coefficient was read for a target past the budget")

    exponent = obstruction.MAX_BINOMIAL_POWER + excess
    monkeypatch.setattr(obstruction.LaurentPoly, "coeff", read)
    code, out, err = run_cli(capsys, "decomp", "--target", f"[[0,1],[{exponent},2]]", "--sigma", "3", "--k", "1")
    assert code == 2 and out == ""
    assert err == f"error: target exponents must be <= {obstruction.MAX_BINOMIAL_POWER}\n"
    target = obstruction.LaurentPoly({exponent: 1})
    for search in (obstruction.decomposition_search, obstruction.decomposition_search_colex):
        with pytest.raises(complexes.InputError, match="target exponents must be <="):
            search(target, 3, 1)


# size (deg T + 1) * #{i <= k : i*Sigma + 1 <= deg T}: one past the budget, and
# the largest that any target within the exponent budget has
@pytest.mark.parametrize(
    "target, sigma, k, size",
    [("[[0,1],[2962,1]]", 2, 27, obstruction.MAX_OFFSET_GRAPH + 1), ("[[0,1],[3000,1]]", 1, 3000, 3001 * 2999)],
    ids=["budget+1", "largest"],
)
def test_decomp_offset_graph_budget_exits_2_before_allocating(capsys, target, sigma, k, size):
    build_parser()
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "decomp", "--target", target, "--sigma", str(sigma), "--k", str(k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == f"error: offset graph size {size} (exponents times offsets) must be <= {obstruction.MAX_OFFSET_GRAPH}\n"
    assert peak < 2**20


def test_decomp_offset_graph_at_the_budget_is_searched(capsys):
    # 2963 * 26 pairs, the most this target has within the budget
    code, out, _ = run_cli(capsys, "decomp", "--target", "[[0,1],[2962,1]]", "--sigma", "2", "--k", "26")
    assert code == 1 and json.loads(out)["k"] == 26


def test_decomp_target_at_the_exponent_budget_is_searched(capsys):
    exponent = obstruction.MAX_BINOMIAL_POWER
    code, out, _ = run_cli(capsys, "decomp", "--target", f"[[{exponent},1]]", "--sigma", "3", "--k", "1")
    assert code == 1 and json.loads(out)["target"] == [[exponent, 1]]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    # T^12 is 367 KB of JSON, far past a 64 KiB pipe buffer; decomp's report
    # fits in one buffer, so only the final flush meets the closed pipe
    [("gen", "torus", "--m", "12"), ("decomp", "--m", "40", "--sigma", "3", "--k", "1")],
    ids=["gen", "decomp"],
)
def test_closed_stdout_exits_141_quietly(argv, buffered):
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "filtcoh.cli", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader leaves before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
