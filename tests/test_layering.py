"""Layering guards.

Generator i is bit i, and only ``complexes`` (through
``FilteredComplex.columns``, ``grade_mask``, ``filtration_mask`` and
``support_ids``), the GF(2) core ``gf2`` and the fixture builder ``morse``
(whose ``1 << m`` counts subsets) may build or decode such bits. The modules
above them reach the encoding only through those primitives.

Where the page recursion stops and how later pages are read is decided in
``spectral`` alone: other modules reach its private names only through the
page sequence ``_Pages``.

No module holds an ``assert`` statement: consistency checks raise, so
that they hold under ``python -O`` too."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_assert_statement(name):
    # ``python -O`` strips assert statements, so a consistency check written
    # as one would pass silently there; the engine raises explicitly
    tree = ast.parse(Path(importlib.import_module(f"filtcoh.{name}").__file__).read_text(encoding="utf-8"))
    assert [f"{name}.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
