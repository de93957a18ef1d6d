"""Exit codes and stdout digests of every page verb on a quantum torus,
pinned to the outputs of the literal page recursion (which ran every page
up to the grade-span bound). A change to how many pages are computed must
leave these bytes alone."""

import hashlib
import json

import pytest

from filtcoh.cli import run
from conftest import quantum_matching

M = 5
LAMBDA, R = "2/3", "1"
BOUND = 20  # stabilization_bound of quantum T^5 with Sigma = 2

PINNED = {
    "kl": (0, "71c91634468d3f1e1ec82fcf1276326bc37cffdac0466c13a7ed1863ff02c7ce"),
    "pages": (0, "db5f4bbdf8bb30e5fd8f6b601bdfae2ddad773a3a9a88be054d51067f82d8a63"),
    "pages-tsv": (0, "d60f15f486ddd852b4a4deefb00712a55f785e4e0eb74cb908f80d6ef2c949f4"),
    "oracle": (0, "0d9f42f97d0911bdcd67f7beaa28439117c6196e7277f7a258841a355c7bf517"),
    "recursion": (0, "c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca"),
    "balance": (0, "6921e5a719c5edb1911439afe582db550435a83b269a165d45f6f2fab4c20f23"),
    "mapcheck-pages": (0, "90775a00c0da25e7b84aafe9fd002051c94a0b52c8c2210fad8453f1cb650fb2"),
}


def _run(capsys, *argv) -> tuple[int, str]:
    code = run(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("quantum5")
    matching = d / "matching.json"
    matching.write_text(json.dumps(quantum_matching(M)))
    return d, matching


def page_verb_outputs(capsys, d, matching) -> dict[str, tuple[int, str]]:
    code, text = _run(
        capsys, "gen", "torus", "--m", str(M), "--quantum", str(matching), "--lambda", LAMBDA, "--r", R
    )
    assert code == 0
    cx = d / "complex.json"
    cx.write_text(text)
    ids = [g["id"] for g in json.loads(text)["generators"]]
    ident = d / "identity.json"
    ident.write_text(json.dumps({"entries": [[g, g] for g in ids]}))
    c = str(cx)
    argvs = {
        "kl": ("kl", c),
        "pages": ("pages", c),
        "pages-tsv": ("pages", c, "--tsv", "--max-k", str(BOUND + 2)),
        "oracle": ("oracle", c),
        "recursion": ("recursion", c),
        "balance": ("recursion", c, "--balance"),
        "mapcheck-pages": ("mapcheck", c, c, str(ident), "--pages"),
    }
    out = {}
    for name, argv in argvs.items():
        code, text = _run(capsys, *argv)
        out[name] = (code, hashlib.sha256(text.encode()).hexdigest())
    return out


def test_page_verbs_match_pinned_outputs(capsys, fixture_files):
    assert page_verb_outputs(capsys, *fixture_files) == PINNED
