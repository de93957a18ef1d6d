"""filtcoh: integer-graded, action-filtered cochain complexes over GF(2).

Computes integer-graded and Z_Sigma-graded cohomology, the spectral
sequence of the action filtration with its stabilization index, Maslov
index arithmetic for sampled Lagrangian paths, and the polynomial/binomial
obstruction calculus for monotone tori.
"""

from .complexes import (
    ComplexFormatError,
    FilteredComplex,
    Generator,
    GradedPiece,
    InputError,
    Violation,
    associated_graded,
    build_complex,
    parse_complex,
    relabel_complex,
    serialize_complex,
    shift_complex,
    validate,
)
from .cohomology import (
    GradedDims,
    HFFiltration,
    hf_filtration,
    integer_graded_cohomology,
    zsigma_cohomology,
)
from .spectral import (
    Page,
    PageCell,
    differential,
    einfty,
    k_stable,
    page,
    page_oracle,
    pages_tsv,
    stabilization_bound,
)
from .chain_maps import (
    FilteredMap,
    compose,
    identity_map,
    induced_page_map,
    verify_cochain_map,
    verify_homotopy,
)
from .maslov import (
    DiskClassData,
    LagrangianPath,
    compatibility_check,
    kunneth_index,
    maslov_loop_index,
    monotone_constants,
    window_lift,
)
from .obstruction import (
    AudinReport,
    LaurentPoly,
    alternating_binomial_sum,
    audin_decide,
    check_page_recursion,
    decomposition_search,
    poincare_laurent,
    rank_balance,
)
from .morse import QuantumEdge, TorusSpec, quantum_perturbed_torus, torus_complex

__version__ = "0.1.0"
