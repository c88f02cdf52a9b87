"""The fully normalized eight-vertex matrix R+(x) and its identity checks.

Assembly:  R+(x) = tau(q^(1/2)/x) * (1/mu(x)) * M(x)   with

    M = [[a, 0, 0, d],
         [0, b, c, 0],
         [0, c, b, 0],
         [d, 0, 0, a]]     (basis order ++, +-, -+, --)

and entries evaluated through theta quotients of the nome p, which makes
the whole matrix a function of the multiplicative triple (x, q, p) and lets
every identity be checked at shifted arguments (x q^-2, x p, products):

    a = T(-1/(q x)) / T(-1/q),   b = T(x) / T(-1/q),
    c = 1,                       d = p^(1/2) T(-1/(q x)) T(x),

with T(y) = y theta_{p^2}(y^-2)/theta_{p^2}(p y^-2) from the elliptic module.

R+ is a plain 4x4 complex ndarray.  It is symmetric and invariant under
conjugation by the slot swap, so R_21 = R_12 and both partial transposes
coincide on it; the checks below still apply the transposes literally.  The
checks return residuals, not verdicts: the verification suites decide which
points are well posed and what passes.
"""

from __future__ import annotations

import cmath

import numpy as np

from .elliptic import NomeParams, snh_core
from .errors import (
    DomainError,
    NearSingularity,
    NonConvergentBase,
    SingularMatrix,
    TruncationExceeded,
)
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _as_complex,
    _checked_base,
    _product,
    _theta_quotient,
    qpochhammer,
)

__all__ = [
    "tau_fn",
    "tau_fn_pochhammer",
    "mu_inv",
    "kappa_inv",
    "pshift_scalar",
    "r_plus",
    "partial_transpose",
    "rmatrix_inverse",
    "check_crossing",
    "check_pshift",
    "check_ybe",
]

_COND_LIMIT = 1e12


def tau_fn(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """tau(x) = x^-1 theta_{q^4}(x^2 q) / theta_{q^4}(x^-2 q)."""
    xv = _as_complex(x, "x")
    qv = _as_complex(q, "q")
    if xv == 0:
        raise DomainError("tau needs x != 0")
    return _theta_quotient(qv**4, (xv * xv * qv,), (qv / (xv * xv),), policy, xv)


def tau_fn_pochhammer(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """tau in its explicit four-product form,

        x^-1 (q x^2; q^4) (q^3 x^-2; q^4) / [ (q x^-2; q^4) (q^3 x^2; q^4) ],

    kept as an independent code path from the theta-quotient form.
    """
    xv = _as_complex(x, "x")
    qv = _as_complex(q, "q")
    if xv == 0:
        raise DomainError("tau needs x != 0")
    q4 = qv**4
    x2 = xv * xv
    num = qpochhammer(qv * x2, q4, policy) * qpochhammer(qv**3 / x2, q4, policy)
    den = qpochhammer(qv / x2, q4, policy) * qpochhammer(qv**3 * x2, q4, policy)
    if den == 0:
        raise NearSingularity(f"tau denominator vanished at x = {xv!r}")
    return num / (xv * den)


def kappa_inv(
    x2: complex,
    p: complex,
    q: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """1/kappa = prod_num (z; p, q^4)_inf / prod_den (z; p, q^4)_inf, over
    z = q^4/y, q^2 y, p/y, p q^2 y (num) and q^4 y, q^2/y, p y, p q^2/y (den).

    Takes the squared argument y = x^2 directly.  With a the larger base of
    (p, q^4) and b the smaller, (z; a, b) = prod_n (z a^n; b).  The R head
    rows, those with |z a^n| > 1/2, are one-base products; the tails
    w = z a^N of all eight arguments go into one series,

        log (w; a, b)_inf = -sum_{j >= 1} w^j / (j (1 - a^j) (1 - b^j)),

    stopped after term J once sum_w |w|^(J+1) / ((J+1)(1-|a|)(1-|b|)(1-|w|)),
    which bounds the rest, falls below its share.  Every head row and the
    series get the share tail_tol / (2 (R+1)), so what they drop changes
    log(1/kappa) by less than 2 tail_tol / 3 and the relative error is below
    e^(2 tail_tol/3) - 1 < tail_tol.  More than ``max_terms`` rows for one
    argument, factors in a row or series terms: TruncationExceeded.
    """
    y = _as_complex(x2, "x2")
    pv = _as_complex(p, "p")
    qv = _as_complex(q, "q")
    if y == 0:
        raise DomainError("kappa_inv needs x2 != 0")
    q2 = qv * qv
    q4 = q2 * q2
    a, b = sorted((_checked_base(pv), _checked_base(q4)), key=abs, reverse=True)
    num_rows: list[complex] = []
    den_rows: list[complex] = []
    tails: list[complex] = []  # four numerator tails, then four denominator tails
    for rows, args in (
        (num_rows, (q4 / y, q2 * y, pv / y, pv * q2 * y)),
        (den_rows, (q4 * y, q2 / y, pv * y, pv * q2 / y)),
    ):
        for z in args:
            start = len(rows)
            while abs(z) > 0.5:
                if len(rows) - start == policy.max_terms:
                    raise TruncationExceeded(
                        f"more than max_terms={policy.max_terms} head rows "
                        f"(base moduli {abs(a):.4g}, {abs(b):.4g})"
                    )
                rows.append(z)
                z *= a
            tails.append(z)
    share = policy.tail_tol / (2 * (len(num_rows) + len(den_rows) + 1))
    row_policy = TruncationPolicy(policy.max_terms, share)
    num = den = 1.0 + 0j
    for z in num_rows:
        num *= _product(z, b, row_policy)
    for z in den_rows:
        den *= _product(z, b, row_policy)
    if den == 0:
        raise NearSingularity(f"kappa_inv denominator vanished at x2 = {y!r}")

    mags = [abs(w) for w in tails]
    scale = 1.0 / ((1.0 - abs(a)) * (1.0 - abs(b)))
    # rest[i] = |w_i|^(j+1) / ((1-|a|)(1-|b|)(1-|w_i|)), from j = 1 on
    rest = [scale * m * m / (1.0 - m) for m in mags]
    powers = tails
    a_j, b_j = a, b
    log_tail = 0j
    for j in range(1, policy.max_terms + 1):
        n1, n2, n3, n4, d1, d2, d3, d4 = powers
        signed = (n1 + n2 + n3 + n4) - (d1 + d2 + d3 + d4)
        log_tail -= signed / (j * (1.0 - a_j) * (1.0 - b_j))
        if sum(rest) < share * (j + 1):
            return num / den * cmath.exp(log_tail)
        powers = [v * w for v, w in zip(powers, tails)]
        rest = [r * m for r, m in zip(rest, mags)]
        a_j *= a
        b_j *= b
    raise TruncationExceeded(
        f"kappa_inv tail series did not meet {share:g} within "
        f"max_terms={policy.max_terms} terms"
    )


def mu_inv(
    x: complex,
    p: complex,
    q: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """1/mu(x) = 1/kappa(x^2) * (p^2;p^2)/(p;p)^2
    * theta_{p^2}(p x^2) theta_{p^2}(q^2) / theta_{p^2}(q^2 x^2)."""
    xv = _as_complex(x, "x")
    pv = _as_complex(p, "p")
    qv = _as_complex(q, "q")
    if xv == 0:
        raise DomainError("mu_inv needs x != 0")
    x2 = xv * xv
    p2 = pv * pv
    quotient = _theta_quotient(p2, (pv * x2, qv * qv), (qv * qv * x2,), policy)
    const = qpochhammer(p2, p2, policy) / qpochhammer(pv, pv, policy) ** 2
    return kappa_inv(x2, pv, qv, policy) * const * quotient


def _entries(
    x: complex, nome: NomeParams, policy: TruncationPolicy
) -> tuple[complex, complex, complex, complex]:
    """Eight-vertex entries at multiplicative argument x (see module docstring)."""
    y_lam = -1.0 / nome.q
    y_a = y_lam / x
    t_lam = snh_core(y_lam, nome.p, policy)
    if abs(t_lam) < 1e-10:
        raise NearSingularity("snh(lambda) below tolerance in entry assembly")
    t_a = snh_core(y_a, nome.p, policy)
    t_x = snh_core(x, nome.p, policy)
    a = t_a / t_lam
    b = t_x / t_lam
    d = cmath.sqrt(nome.p) * t_a * t_x
    return a, b, 1.0 + 0j, d


def r_plus(
    x: complex,
    nome: NomeParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Normalized matrix R+(x) at nome pair (p, q), as a 4x4 complex array
    (rows and columns ++, +-, -+, --); DomainError if an entry is not finite."""
    xv = _as_complex(x, "x")
    if xv == 0:
        raise DomainError("r_plus needs x != 0")
    if not (abs(nome.p) < 1.0):
        raise NonConvergentBase(
            f"|p| = {abs(nome.p):.6g} >= 1: normalization products diverge"
        )
    scale = tau_fn(cmath.sqrt(nome.q) / xv, nome.q, policy) * mu_inv(
        xv, nome.p, nome.q, policy
    )
    a, b, c, d = _entries(xv, nome, policy)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = a
    m[1, 1] = m[2, 2] = b
    m[1, 2] = m[2, 1] = c
    m[0, 3] = m[3, 0] = d
    m *= scale
    if not np.all(np.isfinite(m)):
        raise DomainError(f"R+ entries are not finite at x = {xv!r}")
    return m


def _matrix4(mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.shape != (4, 4):
        raise DomainError(f"need a 4x4 matrix, got shape {arr.shape}")
    return arr


def partial_transpose(mat: np.ndarray, slot: int) -> np.ndarray:
    """Transpose on one tensor slot of the 2x2 (x) 2x2 structure; involutive."""
    if slot not in (1, 2):
        raise DomainError(f"slot must be 1 or 2, got {slot!r}")
    t = _matrix4(mat).reshape(2, 2, 2, 2)
    t = t.transpose(2, 1, 0, 3) if slot == 1 else t.transpose(0, 3, 2, 1)
    return t.reshape(4, 4)


def rmatrix_inverse(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse with condition-number reporting; raises SingularMatrix when
    the condition number exceeds 1e12 or elimination fails."""
    arr = _matrix4(mat)
    cond = float(np.linalg.cond(arr))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds {_COND_LIMIT:g}")
    try:
        inv = np.linalg.inv(arr)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return inv, cond


def pshift_scalar(
    x: complex, nome: NomeParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """The scalar F(x) relating R(x p) = F(x)^-1 R(x), in collapsed form:

        q^-2 * th(x^2 q^2) th(x^-2 q^2) th(x^2 q^2 p) th(x^-2 q^2 / p)
             / [ th(x^-2) th(x^2) th(x^-2 / p) th(x^2 p) ]

    with th = theta_{q^4}. All square roots of the four-tau definition cancel
    exactly, so this form is branch-free; the exchange module evaluates the
    literal four-tau product as an independent path.
    """
    xv = _as_complex(x, "x")
    if xv == 0:
        raise DomainError("pshift_scalar needs x != 0")
    p, q = nome.p, nome.q
    x2 = xv * xv
    ix2 = 1.0 / x2
    return _theta_quotient(
        q**4,
        (x2 * q * q, ix2 * q * q, x2 * q * q * p, ix2 * q * q / p),
        (ix2, x2, ix2 / p, x2 * p),
        policy,
        q * q,
    )


def _max_abs(*mats: np.ndarray) -> float:
    return float(max(np.max(np.abs(m)) for m in mats))


def check_crossing(
    x: complex, nome: NomeParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float, float]:
    """Crossing symmetry (R(x)^-1)^t1 = (R(x q^-2)^t1)^-1.

    Returns (max entry residual, largest entry of the two sides, the larger
    condition number of the two inversions).
    """
    xv = _as_complex(x, "x")
    r_here = r_plus(xv, nome, policy)
    r_shift = r_plus(xv / nome.q**2, nome, policy)
    inv_here, cond1 = rmatrix_inverse(r_here)
    lhs = partial_transpose(inv_here, 1)
    rhs, cond2 = rmatrix_inverse(partial_transpose(r_shift, 1))
    return _max_abs(lhs - rhs), _max_abs(lhs, rhs), max(cond1, cond2)


def check_pshift(
    x: complex, nome: NomeParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """Nome-shift covariance F(x) R(x p) = R(x).

    Returns (max entry residual, largest entry of the two sides).
    """
    xv = _as_complex(x, "x")
    factor = pshift_scalar(xv, nome, policy)
    lhs = factor * r_plus(xv * nome.p, nome, policy)
    rhs = r_plus(xv, nome, policy)
    return _max_abs(lhs - rhs), _max_abs(lhs, rhs)


def _swap23() -> np.ndarray:
    s = np.zeros((8, 8))
    for s1 in range(2):
        for s2 in range(2):
            for s3 in range(2):
                s[4 * s1 + 2 * s2 + s3, 4 * s1 + 2 * s3 + s2] = 1.0
    return s


_S23 = _swap23()
_I2 = np.eye(2)


def check_ybe(
    x: complex,
    y: complex,
    nome: NomeParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """Yang-Baxter relation R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x).

    Returns (max entry residual, largest entry of R(x), R(y), R(xy)).
    Embeddings are slot-major (slot 1 varies slowest): R12 = R (x) I,
    R23 = I (x) R, and R13 is R12 conjugated by the swap of slots 2 and 3.
    """
    xv = _as_complex(x, "x")
    yv = _as_complex(y, "y")
    rx = r_plus(xv, nome, policy)
    ry = r_plus(yv, nome, policy)
    rxy = r_plus(xv * yv, nome, policy)
    r12 = np.kron(rx, _I2)
    r23 = np.kron(_I2, ry)
    r13 = _S23 @ np.kron(rxy, _I2) @ _S23
    return _max_abs(r12 @ r13 @ r23 - r23 @ r13 @ r12), _max_abs(rx, ry, rxy)
