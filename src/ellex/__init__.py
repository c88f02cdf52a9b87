"""Numerical structure functions of the elliptic eight-vertex exchange
algebra: certified q-series and theta products, the normalized eight-vertex
matrix and its identities, the exchange functions F(m, x) and Y(x) on the
constraint surface p^m = q^(c+2), their classical Poisson limits, and a
verification CLI that machine-checks every identity as a quantitative
statement.
"""

__version__ = "0.1.0"

from .elliptic import (
    EllipticParams,
    NomeParams,
    baxter_entries,
    complete_K,
    jacobi_snh,
    modulus_from_nome,
    param_map,
)
from .errors import (
    AnnulusContainsPole,
    DomainError,
    EllexError,
    NearSingularity,
    NonConvergentBase,
    QuadratureUnresolved,
    SamplingExhausted,
    SingularMatrix,
    TruncationExceeded,
)
from .exchange import (
    CommutingPoint,
    LevelParams,
    check_p_periodicity,
    commuting_F,
    exchange_F,
    exchange_F_iterated,
    exchange_F_negative_by_reciprocity,
    exchange_Y,
    exchange_Y_ratio,
    shift_factor_F,
)
from .poisson import (
    AnnulusLabel,
    ModeBracketTable,
    beta_limit_check,
    format_mode_bracket,
    laurent_modes,
    poisson_series_g,
    poisson_structure,
    poisson_structure_center,
)
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    log_deriv_theta,
    near_theta_zero,
    qpochhammer,
    theta,
    theta_shift_factor,
)
from .report import CheckResult, VerificationReport
from .rmatrix import (
    check_crossing,
    check_pshift,
    check_ybe,
    kappa_inv,
    mu_inv,
    partial_transpose,
    r_plus,
    rmatrix_inverse,
    tau_fn,
    tau_fn_pochhammer,
)

__all__ = [
    "__version__",
    # policy and q-series
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "qpochhammer",
    "theta",
    "theta_shift_factor",
    "log_deriv_theta",
    "near_theta_zero",
    # elliptic
    "EllipticParams",
    "NomeParams",
    "complete_K",
    "jacobi_snh",
    "param_map",
    "baxter_entries",
    "modulus_from_nome",
    # R-matrix
    "tau_fn",
    "tau_fn_pochhammer",
    "mu_inv",
    "kappa_inv",
    "r_plus",
    "partial_transpose",
    "rmatrix_inverse",
    "check_crossing",
    "check_pshift",
    "check_ybe",
    # exchange
    "LevelParams",
    "CommutingPoint",
    "shift_factor_F",
    "exchange_F",
    "exchange_F_iterated",
    "exchange_F_negative_by_reciprocity",
    "exchange_Y",
    "exchange_Y_ratio",
    "commuting_F",
    "check_p_periodicity",
    # poisson
    "AnnulusLabel",
    "ModeBracketTable",
    "poisson_series_g",
    "poisson_structure",
    "poisson_structure_center",
    "beta_limit_check",
    "laurent_modes",
    "format_mode_bracket",
    # reports
    "CheckResult",
    "VerificationReport",
    # errors
    "EllexError",
    "DomainError",
    "NonConvergentBase",
    "TruncationExceeded",
    "NearSingularity",
    "SingularMatrix",
    "AnnulusContainsPole",
    "QuadratureUnresolved",
    "SamplingExhausted",
]
