"""Tests of the benchmark itself: its checks reject corrupted outputs, its
tracer patches and restores every layer, and run.py refuses to run outside
a checkout. Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

import filtcoh  # noqa: E402
from filtcoh import cli, gf2, spectral  # noqa: E402


def run_cli(argv, stdin=""):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv)
        return code, json.loads(sys.stdout.getvalue())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def test_gf2_rank_matches_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        vecs = [rng.getrandbits(6) for _ in range(rng.randint(0, 5))]
        span = {0}
        for v in vecs:
            span |= {s ^ v for s in span}
        assert 2 ** checks.gf2_rank(vecs) == len(span)


def test_torus_einfty_page_off_by_one_fails():
    torus = _gen_torus(5)
    cx = checks.cx_from_json(torus)
    code, out = run_cli(["pages", "--einfty"], stdin=torus)
    assert checks.check_torus_einfty(out, code, cx, 5, 2) is None
    bad = copy.deepcopy(out)
    bad["cells"][2][2] += 1
    assert "E^infty" in checks.check_torus_einfty(bad, code, cx, 5, 2)
    assert checks.check_torus_einfty(out, 1, cx, 5, 2) == "exit 1"


def test_torus_hf_representatives_are_checked():
    torus = _gen_torus(4)
    cx = checks.cx_from_json(torus)
    code, out = run_cli(["hf"], stdin=torus)
    assert checks.check_torus_hf(out, code, cx, 4, 2) is None
    (j0, reps0), (j1, reps1) = out["hf"]["representatives"]
    bad = copy.deepcopy(out)
    bad["hf"]["representatives"][0][1][0] = reps1[0]  # a generator of the other class
    assert "another degree" in checks.check_torus_hf(bad, code, cx, 4, 2)
    bad = copy.deepcopy(out)
    bad["hf"]["representatives"][0][1][0] = reps0[1]  # two equal representatives
    assert "dependent" in checks.check_torus_hf(bad, code, cx, 4, 2)
    bad = copy.deepcopy(out)
    del bad["hf"]["representatives"][1]
    assert "representatives" in checks.check_torus_hf(bad, code, cx, 4, 2)


def _gen_torus(m):
    saved = sys.stdout
    sys.stdout = io.StringIO()
    try:
        assert cli.run(["gen", "torus", "--m", str(m)]) == 0
        return sys.stdout.getvalue()
    finally:
        sys.stdout = saved


@pytest.fixture(scope="module")
def small_random(tmp_path_factory):
    text, cx = workloads.random_complex(random.Random(11), 60, 3, 6)
    path = tmp_path_factory.mktemp("cx") / "c.json"
    path.write_text(text)
    return str(path), cx


def test_random_complex_is_valid_and_checks_pass(small_random):
    path, cx = small_random
    code, out = run_cli(["validate", path])
    assert checks.check_validate(out, code, cx) is None
    for verb, check in (("cohom", checks.check_cohom), ("hf", checks.check_hf),
                        ("pages", checks.check_pages), ("oracle", checks.check_oracle)):
        code, out = run_cli([verb, path])
        assert check(out, code, cx) is None, verb


def test_corrupted_random_outputs_fail(small_random):
    path, cx = small_random
    code, out = run_cli(["pages", path])
    bad = copy.deepcopy(out)
    bad["pages"][-1]["dim"] += 1
    assert checks.check_pages(bad, code, cx) is not None
    code, out = run_cli(["hf", path])
    bad = copy.deepcopy(out)
    bad["filtration"][0][1][0][1] += 1
    assert checks.check_hf(bad, code, cx) is not None
    code, out = run_cli(["cohom", path])
    if out["dims"]:
        bad = copy.deepcopy(out)
        bad["dims"][0][1] += 1
        assert checks.check_cohom(bad, code, cx) is not None
        bad = copy.deepcopy(out)
        n, reps = bad["representatives"][0]
        reps[0] = reps[-1] if len(reps) > 1 else []
        assert checks.check_cohom(bad, code, cx) is not None
        bad = copy.deepcopy(out)
        del bad["representatives"]
        assert checks.check_cohom(bad, code, cx) is not None
    code, out = run_cli(["hf", path])
    assert out["hf"]["dims"]
    bad = copy.deepcopy(out)
    bad["hf"]["representatives"].pop()
    assert "representatives" in checks.check_hf(bad, code, cx)


def test_quantum_torus_checks():
    matching, max_shift = workloads.quantum_matching(4)
    assert max_shift == 2
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(matching))
    try:
        text = _gen_quantum(4)
    finally:
        sys.stdin = saved
    cx = checks.cx_from_json(text)
    code, out = run_cli(["kl"], stdin=text)
    assert checks.check_quantum_kl(out, code, cx, max_shift) is None
    assert checks.check_quantum_kl({"k_stable": 2}, code, cx, max_shift) is not None
    code, out = run_cli(["hf"], stdin=text)
    assert checks.check_quantum_hf(out, code, cx, max_shift) is None
    bad = copy.deepcopy(out)
    del bad["filtration"]
    assert checks.check_quantum_hf(bad, code, cx, max_shift) is not None


def _gen_quantum(m):
    saved = sys.stdout
    sys.stdout = io.StringIO()
    try:
        assert cli.run(["gen", "torus", "--m", str(m), "--quantum", "-"]) == 0
        return sys.stdout.getvalue()
    finally:
        sys.stdout = saved


def test_obstruction_checks_reject_wrong_answers():
    target = checks.decomposition_sum([{0: 1, 2: 2}, {1: 3}], 3)
    terms = json.dumps([[e, target[e]] for e in sorted(target)])
    code, out = run_cli(["decomp", "--target", terms, "--sigma", "3", "--k", "2"])
    assert checks.check_decomp(out, code, target, 3, 2, True) is None
    bad = copy.deepcopy(out)
    bad["witness"][0][0][1] += 1
    assert "multiply out" in checks.check_decomp(bad, code, target, 3, 2, True)
    assert not checks.divides_with_nonnegative_quotient(checks.binomial_power(40), 4)
    assert checks.divides_with_nonnegative_quotient(checks.poly_mul({0: 1, 4: 1}, {0: 2, 3: 1}), 4)
    code, out = run_cli(["binom", "--m", "30", "--N", "7"])
    assert checks.check_binom(out, code, 30, 7) is None
    assert checks.check_binom({**out, "value": out["value"] + 1}, code, 30, 7) is not None
    code, out = run_cli(["audin", "--m", "15"])
    assert checks.check_audin(out, code, 15) is None
    bad = copy.deepcopy(out)
    assert bad["cases"][0] == {"Sigma": 4, "status": "escape", "k": 4}
    bad["cases"][0] = {"Sigma": 4, "status": "excluded_degree"}
    assert checks.check_audin(bad, code, 15) is not None
    assert checks.check_maslov_index({"index": 4}, 0, [1, 1]) is None
    assert checks.check_maslov_index({"index": 6}, 0, [1, 1]) is not None


def test_only_the_known_reason_is_excused():
    kind = workloads.DECOMP_FAULT
    assert workloads.known_fault(kind, "RecursionError: maximum recursion depth exceeded")
    assert not workloads.known_fault(kind, "status witness, expected none")
    assert not workloads.known_fault(kind, "decomp echoes another problem")
    assert not workloads.known_fault("decomp-m9-k2", "RecursionError: maximum recursion depth exceeded")
    # the fault job's check still rejects a wrong answer given without the crash
    target = checks.binomial_power(1500)
    assert not checks.divides_with_nonnegative_quotient(target, 4)
    terms = [[e, target[e]] for e in sorted(target)]
    wrong = {"target": terms, "Sigma": 3, "k": 1, "status": "witness", "verified": True, "witness": [terms]}
    assert checks.check_decomp(wrong, 0, target, 3, 1, False) is not None


def test_tracer_patches_every_holder_and_restores():
    originals = (gf2.preimage, spectral.preimage, gf2.Subspace.__init__, cli.run)
    assert spectral.preimage is gf2.preimage
    torus = _gen_torus(4)
    tracer = Tracer(filtcoh)
    tracer.install()
    try:
        assert spectral.preimage is gf2.preimage is not originals[0]
        code, out = run_cli(["kl"], stdin=torus)
        assert code == 0 and out == {"k_stable": 1}
    finally:
        tracer.uninstall()
    assert (gf2.preimage, spectral.preimage, gf2.Subspace.__init__, cli.run) == originals
    per = tracer.per_name()
    assert per["cli.run"][0] == 1 and per["spectral.k_stable"][0] == 1
    assert per["gf2.Subspace.__init__"][0] > 0
    assert tracer.counts["spectral.pages_requested"] == spectral.stabilization_bound(filtcoh.parse_complex(torus))
    # self times partition the root span
    s = tracer.spans
    root = [i for i in range(0, len(s), 4) if s[i + 3] == -1]
    assert abs(sum(sec for _, sec in per.values()) - sum(s[i + 2] - s[i + 1] for i in root) / 1e9) < 1e-6


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "obstruction", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
