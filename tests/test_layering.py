"""Layering guard: generator i is bit i, and only ``complexes`` (through
``FilteredComplex.columns``, ``grade_mask``, ``filtration_mask`` and
``support_ids``), the GF(2) core ``gf2`` and the fixture builder ``morse``
(whose ``1 << m`` counts subsets) may build or decode such bits. The modules
above them reach the encoding only through those primitives."""

import importlib
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
