"""Layering guards.

Generator i is bit i, and only ``complexes`` (through
``FilteredComplex.columns``, ``grade_mask``, ``filtration_mask`` and
``support_ids``), the GF(2) core ``gf2`` and the fixture builder ``morse``
(whose ``1 << m`` counts subsets) may build or decode such bits. The modules
above them reach the encoding only through those primitives.

Where the page recursion stops and how later pages are read is decided in
``spectral`` alone: other modules reach its private names only through the
page sequence ``_Pages``.

How a ``gf2.BitMatrix`` holds its entries is decided in ``gf2`` alone: no
other module reads its storage.

No module holds an ``assert`` statement: consistency checks raise, so
that they hold under ``python -O`` too.

A process loads only the modules its verb calls: ``import filtcoh.cli``
loads ``complexes`` and ``gf2`` of the engine and not numpy, and the
package's exports load their module on first use."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ABOVE_THE_ENCODING = ("spectral", "cohomology", "chain_maps", "obstruction", "cli")
BIT_TOKENS = ("<<", ".bit_length")


@pytest.mark.parametrize("name", ABOVE_THE_ENCODING)
def test_module_builds_no_generator_bits(name):
    source = Path(importlib.import_module(f"filtcoh.{name}").__file__).read_text(encoding="utf-8")
    hits = [
        f"{name}.py:{lineno}: {line.strip()}"
        for lineno, line in enumerate(source.splitlines(), 1)
        if any(token in line for token in BIT_TOKENS)
    ]
    assert hits == []


MODULES = sorted(m.name for m in pkgutil.iter_modules(importlib.import_module("filtcoh").__path__))


@pytest.mark.parametrize("name", [m for m in MODULES if m != "spectral"])
def test_module_reaches_spectral_privates_only_through_the_page_sequence(name):
    tree = ast.parse(Path(importlib.import_module(f"filtcoh.{name}").__file__).read_text(encoding="utf-8"))
    reached = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("spectral", "filtcoh.spectral"):
            reached += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "spectral":
            reached.append(node.attr)
    assert [n for n in reached if n.startswith("_") and n != "_Pages"] == []


# the storage of a BitMatrix, held by rows or by columns
MATRIX_STORAGE = ("_rows", "_cols")


def test_the_guard_names_the_matrix_storage():
    from filtcoh.gf2 import BitMatrix

    private = [s for s in BitMatrix.__slots__ if s.startswith("_")]
    assert private and set(private) <= set(MATRIX_STORAGE)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "gf2"])
def test_module_reads_no_matrix_storage(name):
    tree = ast.parse(Path(importlib.import_module(f"filtcoh.{name}").__file__).read_text(encoding="utf-8"))
    reads = [
        f"{name}.py:{node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MATRIX_STORAGE
    ]
    assert reads == []


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_assert_statement(name):
    # ``python -O`` strips assert statements, so a consistency check written
    # as one would pass silently there; the engine raises explicitly
    tree = ast.parse(Path(importlib.import_module(f"filtcoh.{name}").__file__).read_text(encoding="utf-8"))
    assert [f"{name}.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


# the names the package exported when it imported every module eagerly
EXPORTS = set(
    """ComplexFormatError FilteredComplex Generator GradedPiece InputError Violation
    associated_graded build_complex parse_complex relabel_complex serialize_complex
    shift_complex validate GradedDims HFFiltration hf_filtration integer_graded_cohomology
    zsigma_cohomology Page PageCell differential einfty k_stable page page_oracle pages_tsv
    stabilization_bound FilteredMap compose identity_map induced_page_map verify_cochain_map
    verify_homotopy DiskClassData LagrangianPath compatibility_check kunneth_index
    maslov_loop_index monotone_constants window_lift AudinReport LaurentPoly
    alternating_binomial_sum audin_decide check_page_recursion decomposition_search
    poincare_laurent rank_balance QuantumEdge TorusSpec quantum_perturbed_torus
    torus_complex""".split()
)
ENGINE_ABOVE_COMPLEXES = ("spectral", "cohomology", "chain_maps", "maslov", "morse", "obstruction")


def fresh(code: str):
    """Run code in a fresh interpreter and return the JSON it prints."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_engine_module_above_complexes():
    loaded = fresh("import sys, json, filtcoh.cli; print(json.dumps(sorted(sys.modules)))")
    assert "filtcoh.complexes" in loaded and "filtcoh.gf2" in loaded
    assert [m for m in (*(f"filtcoh.{n}" for n in ENGINE_ABOVE_COMPLEXES), "numpy") if m in loaded] == []


def test_binom_loads_obstruction_but_not_spectral():
    loaded = fresh(
        "import io, json, sys; from filtcoh import cli; out, sys.stdout = sys.stdout, io.StringIO(); "
        "code = cli.run(['binom', '--m', '6', '--N', '3']); sys.stdout = out; "
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    assert loaded[0] == 0
    assert "filtcoh.obstruction" in loaded[1] and "filtcoh.spectral" not in loaded[1]


def test_every_export_is_its_modules_object_and_is_not_stored_in_the_package():
    report = fresh(
        "import json, sys, filtcoh\n"
        "names = filtcoh.__all__\n"
        "wrong = [n for n in names if getattr(sys.modules[getattr(filtcoh, n).__module__], n) is not getattr(filtcoh, n)]\n"
        "stored = sorted(set(names) & set(vars(filtcoh)))\n"
        "mods = [getattr(filtcoh, m) is sys.modules['filtcoh.' + m] for m in ('spectral', 'maslov', 'gf2')]\n"
        "print(json.dumps([names, wrong, stored, mods]))"
    )
    names, wrong, stored, mods = report
    assert sorted(names) == sorted(EXPORTS) and len(names) == len(set(names))
    assert wrong == [] and stored == []
    assert mods == [True, True, True]


def test_star_import_binds_every_export():
    bound = fresh("import json; from filtcoh import *; print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))")
    assert set(bound) == EXPORTS | {"json"}


def test_unknown_name_raises_attribute_error():
    report = fresh(
        "import json, filtcoh\n"
        "try:\n    filtcoh.no_such_name\nexcept AttributeError as exc:\n    print(json.dumps(str(exc)))"
    )
    assert report == "module 'filtcoh' has no attribute 'no_such_name'"
