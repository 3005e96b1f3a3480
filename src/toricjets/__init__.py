"""Jet scheme component classification for cyclic quotient surface
singularities.

A coprime pair (p, q) with 0 < p < q determines an affine toric surface
with a single singular point.  For each jet level m this package computes
the irreducible components of the jet fiber over that point: their labels,
the identifications among labels, codimensions, and the closed-form count,
and it cross-checks the classification against exact witness arcs and an
exhaustive finite-field enumeration.
"""

from .components import (
    ComponentClass,
    codimension,
    count_closed_form,
    dimension,
    enumerate_classes,
    m_cap,
    valid_labels,
)
from .equations import BinomialEquation, generators, grading_check
from .errors import (
    CoprimalityError,
    EmbeddingDimensionError,
    GuardExceededError,
    InputRangeError,
    NonMemberError,
    ToricJetsError,
)
from .jets import (
    ABOVE_M,
    RATIONALS,
    CoefficientField,
    TruncatedJet,
    contact_profile,
    coordinate_order,
    evaluate,
    is_member,
    monomial_arc,
    prime_field,
    truncate,
)
from .lattice import (
    ConePair,
    ContinuedFraction,
    DualBasis,
    ToricSurface,
    cone_contains,
    contact_vector,
    dual_hilbert_basis,
    dual_hilbert_basis_bruteforce,
    exceptional_count_dual_cf,
    exceptional_count_hull,
    hj_evaluate,
    hj_expand,
)
from .oracle import (
    DEFAULT_GUARD,
    CoverageReport,
    OracleConfig,
    StratumStats,
    check_order_propagation,
    coverage_spot_check,
    fiber_profiles,
    required_budget,
)

__version__ = "0.1.0"

__all__ = [
    "ABOVE_M",
    "BinomialEquation",
    "CoefficientField",
    "ComponentClass",
    "ConePair",
    "ContinuedFraction",
    "CoprimalityError",
    "CoverageReport",
    "DEFAULT_GUARD",
    "DualBasis",
    "EmbeddingDimensionError",
    "GuardExceededError",
    "InputRangeError",
    "NonMemberError",
    "OracleConfig",
    "RATIONALS",
    "StratumStats",
    "ToricJetsError",
    "ToricSurface",
    "TruncatedJet",
    "check_order_propagation",
    "codimension",
    "cone_contains",
    "contact_profile",
    "contact_vector",
    "coordinate_order",
    "count_closed_form",
    "coverage_spot_check",
    "dimension",
    "dual_hilbert_basis",
    "dual_hilbert_basis_bruteforce",
    "enumerate_classes",
    "evaluate",
    "exceptional_count_dual_cf",
    "exceptional_count_hull",
    "fiber_profiles",
    "generators",
    "grading_check",
    "hj_evaluate",
    "hj_expand",
    "is_member",
    "m_cap",
    "monomial_arc",
    "prime_field",
    "required_budget",
    "truncate",
    "valid_labels",
]
