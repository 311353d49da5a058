"""Exact Levi-Civita connections on noncommutative tori.

The package implements a derivation-based differential calculus over the
noncommutative n-torus with formal deformation phases, hermitian metrics
on the free module of one-forms, and the constructive solver for
torsion-free metric-compatible connections, all in exact arithmetic.

Every operation is a pure function of its arguments.  The descriptors
(``TorusAlgebra``, ``LieAlgebra``, ``Calculus``), forms, metrics,
connections, solver parameters and verification reports are immutable
records: assigning or deleting a field raises AttributeError, so each
keeps the fields its constructor validated.  Scalars and algebra
elements are immutable by convention.
"""

from .algebra import AlgebraElement, TorusAlgebra
from .connections import (
    Connection,
    antisymmetrize,
    compat_defect,
    lc_characterization_check,
    metric_pairing_operator,
    torsion,
)
from .errors import (
    DescriptorMismatch,
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
    LCVerification,
    SolverParams,
    assemble_U,
    build_levi_civita,
    compute_F,
    solve_R,
    verify_levi_civita,
)
from .metric import (
    HermitianMetric,
    invert_metric,
    symmetry_form,
    validate,
    weak_symmetry_defect,
)
from .scalars import GaussianRational

__all__ = [
    "AlgebraElement",
    "Calculus",
    "Connection",
    "DescriptorMismatch",
    "GaussianRational",
    "HermitianMetric",
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
    "SolvabilityViolated",
    "SolverParams",
    "TorusAlgebra",
    "ZeroElement",
    "antisymmetrize",
    "assemble_U",
    "build_levi_civita",
    "compat_defect",
    "compute_F",
    "invert_metric",
    "lc_characterization_check",
    "metric_pairing_operator",
    "parse_element",
    "render_element",
    "solve_R",
    "symmetry_form",
    "torsion",
    "validate",
    "verify_levi_civita",
    "weak_symmetry_defect",
]
