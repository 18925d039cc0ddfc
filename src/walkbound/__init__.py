"""Walk weights, singular value bounds, and regularity classification."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    hwh_bound,
    mean_bound,
    schur_upper_bound,
    walk_bound,
    weighted_bound,
)
from .classify import (
    ClassificationReport,
    EqualityCertificate,
    PseudoRegularCharacterization,
    certify_theorem2,
    certify_theorem2_1,
    certify_theorem3,
    certify_theorem4,
    characterize_pseudo_regular,
    classify,
    hwh_equality_certificate,
    relaxed_pseudo_regular,
)
from .core import DenseMatrix, ScalarityResult, SparseMatrix, detect_scalar
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    GeneratorError,
    InputFormatError,
    NonFiniteEntryError,
    NotScalarError,
    PreconditionError,
    WalkboundError,
    WalkScaleError,
)
from .gen import GeneratorSpec, certify, generate
from .mmio import read_matrix, write_matrix
from .report import full_analysis, render_text, to_json
from .spectral import (
    RatioEstimate,
    SpectralResult,
    hermitian_eigen,
    largest_singular,
    sigma_ratio_estimate,
    singular_values,
)
from .structure import (
    Component,
    ComponentDecomposition,
    connectivity_via_powers,
    decompose,
    singular_multiset_check,
)
from .walks import (
    WalkTable,
    graph_walk_count_equivalence,
    walk_identity_residual,
    walk_table,
)

__all__ = [
    "BoundReport",
    "ClassificationReport",
    "Component",
    "ComponentDecomposition",
    "ConvergenceError",
    "DenseMatrix",
    "DimensionMismatchError",
    "EqualityCertificate",
    "GeneratorError",
    "GeneratorSpec",
    "InputFormatError",
    "NonFiniteEntryError",
    "NotScalarError",
    "PreconditionError",
    "PseudoRegularCharacterization",
    "RatioEstimate",
    "ScalarityResult",
    "SparseMatrix",
    "SpectralResult",
    "WalkboundError",
    "WalkScaleError",
    "WalkTable",
    "certify",
    "certify_theorem2",
    "certify_theorem2_1",
    "certify_theorem3",
    "certify_theorem4",
    "characterize_pseudo_regular",
    "classify",
    "connectivity_via_powers",
    "decompose",
    "detect_scalar",
    "full_analysis",
    "generate",
    "graph_walk_count_equivalence",
    "hermitian_eigen",
    "hwh_bound",
    "hwh_equality_certificate",
    "largest_singular",
    "mean_bound",
    "read_matrix",
    "relaxed_pseudo_regular",
    "render_text",
    "schur_upper_bound",
    "sigma_ratio_estimate",
    "singular_multiset_check",
    "singular_values",
    "to_json",
    "walk_bound",
    "walk_identity_residual",
    "walk_table",
    "weighted_bound",
    "write_matrix",
]
