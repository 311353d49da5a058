"""Exact Levi-Civita connections on noncommutative tori.

The package implements a derivation-based differential calculus over the
noncommutative n-torus with formal deformation phases, hermitian metrics
on the free module of one-forms, and the constructive solver for
torsion-free metric-compatible connections, all in exact arithmetic.

Every value (scalars, algebra elements, forms, metrics, connections) is
immutable after construction and every operation is a pure function, so
values can be shared and sent between threads freely.
"""

from .algebra import AlgebraElement, TorusAlgebra
from .connections import (
    Connection,
    antisymmetrize,
    apply_connection,
    compat_defect,
    compatible_connection,
    lc_characterization_check,
    metric_pairing_operator,
    sigma_swap,
    symmetrize,
    torsion,
    torsion_free_from,
)
from .errors import (
    AntihermitianViolation,
    DescriptorMismatch,
    HermiticityError,
    InternalVerificationFailure,
    NCTorusError,
    NotHermitian,
    NotInverse,
    NotInvertibleByElimination,
    NotMonomial,
    NotWeaklySymmetric,
    ParamViolation,
    ParseError,
    SolvabilityViolated,
    ZeroElement,
)
from .expr import parse_element, render_element
from .forms import Calculus, KForm, LieAlgebra
from .levicivita import (
    FTensor,
    LCVerification,
    RSet,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compute_F,
    solvability_check,
    solve_R,
    verify_levi_civita,
)
from .metric import (
    HermitianMetric,
    invert_metric,
    pair,
    symmetry_form,
    validate,
    weak_symmetry_defect,
)
from .scalars import GaussianRational

__all__ = [
    "AlgebraElement",
    "AntihermitianViolation",
    "Calculus",
    "Connection",
    "DescriptorMismatch",
    "FTensor",
    "GaussianRational",
    "HermitianMetric",
    "HermiticityError",
    "InternalVerificationFailure",
    "KForm",
    "LCVerification",
    "LieAlgebra",
    "NCTorusError",
    "NotHermitian",
    "NotInverse",
    "NotInvertibleByElimination",
    "NotMonomial",
    "NotWeaklySymmetric",
    "ParamViolation",
    "ParseError",
    "RSet",
    "SolvabilityViolated",
    "SolverParams",
    "TorusAlgebra",
    "ZeroElement",
    "antisymmetrize",
    "apply_connection",
    "assemble_U",
    "build_levi_civita",
    "compat_defect",
    "compatible_connection",
    "compute_F",
    "invert_metric",
    "lc_characterization_check",
    "metric_pairing_operator",
    "pair",
    "parse_element",
    "render_element",
    "sigma_swap",
    "solvability_check",
    "solve_R",
    "symmetrize",
    "symmetry_form",
    "torsion",
    "torsion_free_from",
    "validate",
    "verify_levi_civita",
    "weak_symmetry_defect",
]
