"""Exact-arithmetic HKZ lattice reduction and orthogonality-defect bounds.

Everything is computed over the rationals: Gram matrices, Gram-Schmidt data,
shortest vectors, successive minima, defects, and the bound comparisons are
all exact.  See the `demos/` scripts for guided tours of each capability.
"""

from .bounds import (
    BoundTable,
    bound_table,
    bound_table_csv,
    bound_table_json,
    delta_exact,
    hermite_constant_power,
    hermite_invariant_power,
    lls_bound,
    new_bound,
    orthogonality_defect,
)
from .core import (
    GramFormatError,
    GramMatrix,
    GSOData,
    NotPositiveDefiniteError,
    SingularBasisError,
    Unimodular,
    VectorBasis,
    apply_unimodular,
    determinant,
    format_gram_text,
    format_rat,
    gram_from_vectors,
    ldl,
    load_gram,
    parse_gram_text,
    quadratic_form_value,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    ExperimentResult,
    TrialRecord,
    random_gram,
    records_to_csv,
    run_experiment,
    summary_json,
)
from .reduction import (
    ChainReport,
    HKZCertificate,
    PropositionReport,
    ReductionReport,
    ShortestVectorResult,
    SuccessiveMinima,
    check_defect_chain,
    check_propositions,
    hkz_reduce,
    is_hkz_reduced,
    projected_gram,
    shortest_vector,
    size_reduce,
    successive_minima,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CASES",
    "BoundTable",
    "CasePoint",
    "CaseScanReport",
    "ChainReport",
    "ConvexityCertificate",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentResult",
    "GramFormatError",
    "GramMatrix",
    "GSOData",
    "HKZCertificate",
    "NotPositiveDefiniteError",
    "PropositionReport",
    "QuadraticCase",
    "ReductionReport",
    "ShortestVectorResult",
    "SingularBasisError",
    "SuccessiveMinima",
    "TrialRecord",
    "Unimodular",
    "VectorBasis",
    "VerificationResult",
    "apply_unimodular",
    "bound_table",
    "bound_table_csv",
    "bound_table_json",
    "case_quadratic",
    "check_defect_chain",
    "check_hkz_inequalities",
    "check_propositions",
    "convexity_numerator",
    "convexity_scan",
    "defect_from_parameters",
    "delta_exact",
    "determinant",
    "extremal_gram",
    "format_gram_text",
    "format_rat",
    "gram_from_parameters",
    "gram_from_vectors",
    "hermite_constant_power",
    "hermite_invariant_power",
    "hkz_reduce",
    "is_hkz_reduced",
    "ldl",
    "lls_bound",
    "load_gram",
    "new_bound",
    "orthogonality_defect",
    "parse_gram_text",
    "projected_gram",
    "quadratic_form_value",
    "random_gram",
    "records_to_csv",
    "run_experiment",
    "run_full_verification",
    "scan_case",
    "shortest_vector",
    "size_reduce",
    "successive_minima",
    "summary_json",
    "verify_extremal_form",
    "verify_small_sigma_bound",
]


# only `verify-proof` and rank-3 experiments run `proofcheck`, so the exported
# names not imported above, all from it, load it on first access (PEP 562)
def __getattr__(name):
    if name in __all__:
        from . import proofcheck
        return getattr(proofcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
