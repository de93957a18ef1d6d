"""filtcoh: integer-graded, action-filtered cochain complexes over GF(2).

Computes integer-graded and Z_Sigma-graded cohomology, the spectral
sequence of the action filtration with its stabilization index, Maslov
index arithmetic for sampled Lagrangian paths, and the polynomial/binomial
obstruction calculus for monotone tori.

Submodules load on first use (PEP 562): ``import filtcoh`` imports none of
them, and ``filtcoh.page`` or ``filtcoh.spectral`` imports ``spectral`` when
it is first read. A name is looked up in its module on every read and never
stored here, so a function patched in its module is seen through the package
too.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "complexes": (
        "ComplexFormatError", "FilteredComplex", "Generator", "GradedPiece", "InputError",
        "Violation", "associated_graded", "build_complex", "parse_complex", "relabel_complex",
        "serialize_complex", "shift_complex", "validate",
    ),
    "cohomology": (
        "GradedDims", "HFFiltration", "hf_filtration", "integer_graded_cohomology", "zsigma_cohomology",
    ),
    "spectral": (
        "Page", "PageCell", "differential", "einfty", "k_stable", "page", "page_oracle", "pages_tsv",
        "stabilization_bound",
    ),
    "chain_maps": (
        "FilteredMap", "compose", "identity_map", "induced_page_map", "verify_cochain_map",
        "verify_homotopy",
    ),
    "maslov": (
        "DiskClassData", "LagrangianPath", "compatibility_check", "kunneth_index",
        "maslov_loop_index", "monotone_constants", "window_lift",
    ),
    "obstruction": (
        "AudinReport", "LaurentPoly", "alternating_binomial_sum", "audin_decide",
        "check_page_recursion", "decomposition_search", "poincare_laurent", "rank_balance",
    ),
    "morse": ("QuantumEdge", "TorusSpec", "quantum_perturbed_torus", "torus_complex"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"gf2"}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        # importing a submodule binds it as an attribute of the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
