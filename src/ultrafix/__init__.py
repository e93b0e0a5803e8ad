"""ultrafix: certified local inversion, implicit functions and fixed points
over valued fields (p-adic and real), with machine-checkable quantitative
certificates."""

from .calculus import (
    IdentityReport,
    MapSpec,
    QuotientPoint,
    check_identities,
    compose,
    diff_quotient,
    eval_map,
    jacobian,
    jacobian_exact,
    lipschitz_bound,
    quotient_map,
    second_quotient,
    strictness_modulus,
)
from .contraction import (
    ContractionProblem,
    FixedPointReport,
    admissible,
    fixed_point_derivative,
    iterate_fixed_point,
    lipschitz_theta,
    newton_fixed_point,
    uniform_family_check,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DivisionByZero,
    DomainEscape,
    DomainViolation,
    InconsistentCertificate,
    NotAContraction,
    NotAdmissible,
    NotAFixedPoint,
    NotCertifiable,
    OutsideWindow,
    PrecisionExhausted,
    SchemaError,
    SingularA,
    SingularMatrix,
    TargetOutsideGuarantee,
    UltrafixError,
    WindowNotFound,
)
from .field import (
    FieldDescriptor,
    PadicScalar,
    RealScalar,
    Scalar,
    abs_upper_bound,
    embed_rational,
    field_abs,
    field_arith,
    rational_abs,
)
from .implicit import (
    ImplicitSolution,
    ParamWindow,
    build_window,
    solve_implicit,
)
from .inverse import (
    ImageDescription,
    InversionCertificate,
    ball_image,
    certify,
    local_invert,
    verify_distortion,
)
from .linalg import (
    Ball,
    Operator,
    Vector,
    classify_isometry,
    invert_exact,
    neumann_invert,
    operator_norm,
    vec_norm,
)

__version__ = "0.1.0"
