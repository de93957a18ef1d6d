"""Exit codes and stdout digests of every page verb on a quantum torus,
pinned to the outputs of the literal page recursion (which ran every page
up to the grade-span bound). A change to how many pages are computed must
leave these bytes alone.

The verbs that read cohomology, the limit page, a page polynomial and chain
maps are pinned as well, on quantum T^5 and on one seeded random complex,
so that a change to how generators are encoded as bits must leave their
bytes alone too."""

import hashlib
import json
import random

import pytest

from filtcoh.cli import run
from filtcoh.complexes import serialize_complex
from conftest import quantum_matching, random_complex

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


RANDOM_SEED = 37  # 32 generators, 24 edges, Sigma = 3, k(L) = 3

# captured from the code before the bit encoding moved behind FilteredComplex

PINNED_MORE = {
    "quantum5": {
        "validate": (0, "c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca"),
        "cohom-pieces": (0, "9cb6a0484e38787767636cbb8f674f9d75e1a6d415496ec716a0f58977038678"),
        "hf": (0, "aa2544fa25aa7526b6f9295c61e26714e9db5243bbccc2eb22714f3623910371"),
        "pages-einfty": (0, "383a00677ae1564447567ad33263c382f529a2621bd8f71aa97e3e1a884e69c1"),
        "poly-k2": (0, "95c77903eba1a9305d75d3bb00ebde23a17e8fb40626405302e20facbd653688"),
        "mapcheck-pages": (0, "90775a00c0da25e7b84aafe9fd002051c94a0b52c8c2210fad8453f1cb650fb2"),
        "mapcheck-homotopy": (0, "46119b2c3309d6bfa80d712e9290a501cf5bd5c1bc0bef9f36f826795a85975d"),
        "mapcheck-homotopy-zero": (1, "690c99054368ea3ff91d8818813ae8efbc1bb9729d948efff67abe771130aad0"),
    },
    "random": {
        "validate": (0, "c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca"),
        "cohom-pieces": (0, "81e7e9306b798d3baf72f8a16b9b63706e6146018cda42122d7d00cbab6b7bc1"),
        "hf": (0, "7c1c285bce19252f665750174697910ac678c31c7b9313711c1174399b57832a"),
        "pages-einfty": (0, "d0baf6505f063cc06d9acd98044cb68fded8139712c9b3d0625cb8d5353a6d91"),
        "poly-k2": (0, "628f013c1d35e06e74f4076793039d7f8da1ffba326e49b565213b557de69691"),
        "mapcheck-pages": (0, "59df87d11b67d043753e928c25951b1eacea91d3aa224f44c13be6add28ab503"),
        "mapcheck-homotopy": (0, "46119b2c3309d6bfa80d712e9290a501cf5bd5c1bc0bef9f36f826795a85975d"),
        "mapcheck-homotopy-zero": (1, "1eff9db44abd8b937acda01822ba2f1e609d7dab9c42eefa4a3f80c84f234b99"),
    },
}


def _homotopy_files(d, text: str):
    """An identity map, a seeded degree -1 map H, f = id + delta H + H delta
    (a cochain map homotopic to the identity through H) and the zero map, as
    map files built from plain id sets."""
    data = json.loads(text)
    sig = data["sigma_maslov"]
    ids = [g["id"] for g in data["generators"]]
    grade = {g["id"]: g["maslov"] for g in data["generators"]}
    delta = {a: set() for a in ids}
    for a, b in data["edges"]:
        delta[a] ^= {b}
    rng = random.Random(5)
    h = {a: set() for a in ids}
    for a in ids:
        for b in ids:
            jump = grade[b] - grade[a]
            if jump >= -1 and (jump + 1) % sig == 0 and rng.random() < 0.1:
                h[a].add(b)

    def apply(m, s):
        out = set()
        for x in s:
            out ^= m[x]
        return out

    f = {a: {a} ^ apply(h, delta[a]) ^ apply(delta, h[a]) for a in ids}
    paths = []
    maps = (("identity", {a: {a} for a in ids}), ("h", h), ("f", f), ("zero", {a: set() for a in ids}))
    for name, m in maps:
        path = d / f"{name}.json"
        path.write_text(json.dumps({"entries": [[a, b] for a in ids for b in sorted(m[a])]}))
        paths.append(str(path))
    return paths


def more_verb_outputs(capsys, d, text: str) -> dict[str, tuple[int, str]]:
    cx = d / "complex.json"
    cx.write_text(text)
    c = str(cx)
    ident, h, f, zero = _homotopy_files(d, text)
    argvs = {
        "validate": ("validate", c),
        "cohom-pieces": ("cohom", c, "--pieces"),
        "hf": ("hf", c),
        "pages-einfty": ("pages", c, "--einfty"),
        "poly-k2": ("poly", c, "--k", "2"),
        "mapcheck-pages": ("mapcheck", c, c, f, "--pages"),
        "mapcheck-homotopy": ("mapcheck", c, c, f, "--other", ident, "--homotopy", h),
        "mapcheck-homotopy-zero": ("mapcheck", c, c, f, "--other", ident, "--homotopy", zero),
    }
    out = {}
    for name, argv in argvs.items():
        code, out_text = _run(capsys, *argv)
        out[name] = (code, hashlib.sha256(out_text.encode()).hexdigest())
    return out


@pytest.mark.parametrize("fixture", sorted(PINNED_MORE))
def test_more_verbs_match_pinned_outputs(capsys, tmp_path, fixture_files, fixture):
    if fixture == "quantum5":
        _, matching = fixture_files
        code, text = _run(
            capsys, "gen", "torus", "--m", str(M), "--quantum", str(matching), "--lambda", LAMBDA, "--r", R
        )
        assert code == 0
    else:
        text = serialize_complex(random_complex(random.Random(RANDOM_SEED), max_gens=32))
    assert more_verb_outputs(capsys, tmp_path, text) == PINNED_MORE[fixture]
