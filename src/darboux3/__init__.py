"""Darboux polynomials, exponential factors and first integrals of 3-D
polynomial vector fields, with exact rational arithmetic throughout the
symbolic core and a floating-point conservation-drift harness."""

__version__ = "0.1.0"

from .darboux import (  # noqa: F401
    CofactorTemplate,
    CombinationSolution,
    DarbouxCert,
    Verdict,
    analyze,
    combine_cofactors,
    lie_derivative_log_combination,
    search_darboux_fixed,
    search_darboux_pencil,
    search_exp_factors,
    verify_cofactor,
    verify_exp_factor,
    verify_exp_factor_rational,
)
from .exactmath import (  # noqa: F401
    PencilMatrix,
    QMatrix,
    UniPoly,
    null_space,
    pencil_rank_drop,
    rref,
)
from .fieldspec import (  # noqa: F401
    FieldDef,
    HsaParams,
    build_hsa,
    lie_derivative,
    parse_expression,
    parse_field,
)
from .numerics import (  # noqa: F401
    DriftReport,
    IntegralSpec,
    StepMode,
    Trajectory,
    drift,
    eval_integral,
    f2_path_value,
    integrate,
    step_halving_study,
)
from .polyring import Cofactor, Monomial, Poly  # noqa: F401
