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

R+ is held as its four scaled entries (a, b, c, d), a tuple of complex
numbers: the layout above is fixed, and every check reads the matrix through
it.  M splits into the blocks [[a, d], [d, a]] on (++, --) and [[b, c],
[c, b]] on (+-, -+), so the inverse and the condition number come from
a +- d and b +- c, and a transpose on either tensor slot swaps c and d
(R+ is symmetric and invariant under conjugation by the slot swap, so
R_21 = R_12 and both partial transposes coincide).  Yang-Baxter multiplies
the three embedded 8x8 operators on their nonzero pattern.  No function
here needs numpy.  check_pshift imports the scalar F(x) = F(1, x p)
of R(x p) = F(x)^-1 R(x) from exchange on use, as exchange imports tau_fn
from here.  The checks return residuals, not verdicts: the verification
suites decide which points are well posed and what passes.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

from .elliptic import NomeParams, _POLE_TOL, snh_core
from .errors import DomainError, NearSingularity, SingularMatrix, TruncationExceeded
from .qseries import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _as_complex,
    _base,
    _in_disk,
    _invertible,
    _nonzero,
    _product,
    _square,
    _theta_quotient,
    qpochhammer,
)

__all__ = [
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
]

_COND_LIMIT = 1e12

Entries = tuple[complex, complex, complex, complex]  # (a, b, c, d) of R+


def tau_fn(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """tau(x) = x^-1 theta_{q^4}(x^2 q) / theta_{q^4}(x^-2 q)."""
    xv = _nonzero(x, "x")
    qv = _in_disk(q, "q")
    x2 = _square(xv, "x^2")
    return _theta_quotient(_base(qv**4, policy, "q^4"), (x2 * qv,), (qv / x2,), xv)


def tau_fn_pochhammer(
    x: complex, q: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """tau in its explicit four-product form,

        x^-1 (q x^2; q^4) (q^3 x^-2; q^4) / [ (q x^-2; q^4) (q^3 x^2; q^4) ],

    kept as an independent code path from the theta-quotient form.
    """
    xv = _nonzero(x, "x")
    qv = _in_disk(q, "q")
    q4 = qv**4
    x2 = _square(xv, "x^2")
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
    argument, factors in a row or series terms: TruncationExceeded.  A
    running product of head rows that overflows, or underflows to 0 with no
    row product 0: DomainError.
    """
    y = _invertible(x2, "x2")
    pv = _in_disk(p, "p")
    qv = _as_complex(q, "q")
    q2 = qv * qv
    q4 = q2 * q2
    a, b = sorted((pv, _in_disk(q4, "q^4")), key=abs, reverse=True)
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
    rows = _base(b, TruncationPolicy(policy.max_terms, share))
    num = den = 1.0 + 0j
    for z in num_rows:
        num *= _product(z, rows)
    for z in den_rows:
        den *= _product(z, rows)
    if not (cmath.isfinite(num) and cmath.isfinite(den)):
        raise DomainError(f"kappa_inv row products out of floating-point range at x2 = {y!r}")
    # a row product is zero only at a zero factor, so a zero running product
    # of nonzero ones underflowed
    if (not num and all(_product(z, rows) for z in num_rows)
            or not den and all(_product(z, rows) for z in den_rows)):
        raise DomainError(f"kappa_inv row products underflow at x2 = {y!r}")
    if den == 0:
        raise NearSingularity(f"kappa_inv denominator vanished at x2 = {y!r}")

    # the eight tails t_i and their moduli m_i; from j = 1 on, the powers
    # w_i = t_i^j and the bounds r_i = |t_i|^(j+1) / ((1-|a|)(1-|b|)(1-|t_i|)),
    # each in a local, the bounds added left to right
    t1, t2, t3, t4, t5, t6, t7, t8 = w1, w2, w3, w4, w5, w6, w7, w8 = tails
    m1, m2, m3, m4, m5, m6, m7, m8 = mags = [abs(w) for w in tails]
    scale = 1.0 / ((1.0 - abs(a)) * (1.0 - abs(b)))
    r1, r2, r3, r4, r5, r6, r7, r8 = [scale * m * m / (1.0 - m) for m in mags]
    a_j, b_j = a, b
    log_tail = 0j
    for j in range(1, policy.max_terms + 1):
        signed = (w1 + w2 + w3 + w4) - (w5 + w6 + w7 + w8)
        log_tail -= signed / (j * (1.0 - a_j) * (1.0 - b_j))
        if r1 + r2 + r3 + r4 + r5 + r6 + r7 + r8 < share * (j + 1):
            return num / den * cmath.exp(log_tail)
        w1 *= t1
        w2 *= t2
        w3 *= t3
        w4 *= t4
        w5 *= t5
        w6 *= t6
        w7 *= t7
        w8 *= t8
        r1 *= m1
        r2 *= m2
        r3 *= m3
        r4 *= m4
        r5 *= m5
        r6 *= m6
        r7 *= m7
        r8 *= m8
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
    xv = _nonzero(x, "x")
    pv = _in_disk(p, "p")
    qv = _as_complex(q, "q")
    x2 = _square(xv, "x^2")
    p2 = _base(pv * pv, policy, "p^2")
    quotient = _theta_quotient(p2, (pv * x2, qv * qv), (qv * qv * x2,))
    square = qpochhammer(pv, pv, policy) ** 2
    if not square:
        raise DomainError(f"(p; p)^2 underflows at p = {pv!r}")
    const = p2.aa / square
    return kappa_inv(x2, pv, qv, policy) * const * quotient


def _entries(
    x: complex, nome: NomeParams, policy: TruncationPolicy
) -> tuple[complex, complex, complex, complex]:
    """Eight-vertex entries at multiplicative argument x (see module docstring)."""
    y_lam = -1.0 / nome.q
    y_a = y_lam / x
    t_lam = snh_core(y_lam, nome.p, policy)
    if abs(t_lam) < _POLE_TOL:
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
) -> Entries:
    """Normalized matrix R+(x) at nome pair (p, q), as its four scaled
    entries (a, b, c, d) (see the module docstring for the layout).  Its
    normalization uses p as a product base, so |p| >= 1 raises
    NonConvergentBase; a normalization or entry that is not finite raises
    DomainError."""
    xv = _nonzero(x, "x")
    _square(xv, "x^2")  # tau below takes q^(1/2)/x, whose square is q/x^2
    _in_disk(nome.p, "p")
    scale = tau_fn(cmath.sqrt(nome.q) / xv, nome.q, policy) * mu_inv(
        xv, nome.p, nome.q, policy
    )
    if not cmath.isfinite(scale):
        raise DomainError(f"R+ normalization is not finite at x = {xv!r}")
    a, b, c, d = _entries(xv, nome, policy)
    entries = (scale * a, scale * b, scale * c, scale * d)
    if not _max_abs(entries) < math.inf:  # nan, inf, or a modulus beyond range
        raise DomainError(f"R+ entries are not finite at x = {xv!r}")
    return entries


def _checked(entries: Entries) -> Entries:
    if len(entries) != 4:
        raise DomainError(f"need the four entries (a, b, c, d), got {len(entries)}")
    return tuple(complex(e) for e in entries)


def partial_transpose(entries: Entries, slot: int) -> Entries:
    """Transpose on one tensor slot of the 2x2 (x) 2x2 structure; involutive.
    Either slot moves c to the corner and d to the middle block."""
    if slot not in (1, 2):
        raise DomainError(f"slot must be 1 or 2, got {slot!r}")
    a, b, c, d = _checked(entries)
    return a, b, d, c


def rmatrix_inverse(entries: Entries) -> tuple[Entries, float]:
    """Inverse with condition-number reporting, from the blocks [[a, d], [d, a]]
    and [[b, c], [c, b]]: each is normal with eigenvalues a +- d and b +- c,
    whose moduli are the singular values.  Raises SingularMatrix when one of
    them is not finite, when the condition number max / min of them exceeds
    1e12, and when a block determinant (a - d)(a + d) or (b - c)(b + c)
    underflows to 0 or overflows.  Within that condition number, a finite
    nonzero determinant keeps every inverse entry in range."""
    a, b, c, d = _checked(entries)
    eigen = ad_minus, ad_plus, bc_minus, bc_plus = a - d, a + d, b - c, b + c
    sigmas = [_modulus(z) for z in eigen]
    if not all(map(math.isfinite, sigmas)):
        raise SingularMatrix(f"singular values {sigmas} are not all finite")
    cond = max(sigmas) / min(sigmas) if min(sigmas) else math.inf
    if cond > _COND_LIMIT:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds {_COND_LIMIT:g}")
    det_ad, det_bc = ad_minus * ad_plus, bc_minus * bc_plus
    if not (det_ad and det_bc and cmath.isfinite(det_ad) and cmath.isfinite(det_bc)):
        raise SingularMatrix("a block determinant is out of floating-point range")
    return (a / det_ad, b / det_bc, -c / det_bc, -d / det_ad), cond


def _modulus(z: complex) -> float:
    # abs() raises OverflowError where the modulus exceeds the largest double
    return math.hypot(z.real, z.imag)


def _max_abs(*vectors: Iterable[complex]) -> float:
    return max(_modulus(v) for vec in vectors for v in vec)


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
    return _max_abs(l - r for l, r in zip(lhs, rhs)), _max_abs(lhs, rhs), max(cond1, cond2)


def check_pshift(
    x: complex, nome: NomeParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """Nome-shift covariance F(x) R(x p) = R(x), with F(x) = F(1, x p).

    Returns (max entry residual, largest entry of the two sides).
    """
    # on use, not at load: exchange imports tau_fn from this module as it loads
    from .exchange import LevelParams, exchange_F

    xv = _as_complex(x, "x")
    factor = exchange_F(LevelParams(1, nome), xv * nome.p, policy)
    lhs = [factor * e for e in r_plus(xv * nome.p, nome, policy)]
    rhs = r_plus(xv, nome, policy)
    return _max_abs(l - r for l, r in zip(lhs, rhs)), _max_abs(lhs, rhs)


def _embedded(entries: Entries, i: int, j: int) -> list[dict[int, complex]]:
    """R on slots i and j of three as sparse 8x8 rows {column: entry}; basis
    index 4 s1 + 2 s2 + s3 (slot 1 varies slowest), spin 0 = +.  A row keeps
    its spins or flips both slots i and j: a or d where they agree, b or c
    where they differ."""
    a, b, c, d = entries
    bit_i, bit_j = 4 >> (i - 1), 4 >> (j - 1)
    rows = []
    for s in range(8):
        agree = bool(s & bit_i) == bool(s & bit_j)
        rows.append({s: a if agree else b, s ^ bit_i ^ bit_j: d if agree else c})
    return rows


def _matmul(*mats: list[dict[int, complex]]) -> list[dict[int, complex]]:
    """Left-to-right product of sparse rows, each entry summed over the
    inner index in increasing order."""
    out = mats[0]
    for right in mats[1:]:
        rows = []
        for row in out:
            acc: dict[int, complex] = {}
            for k in sorted(row):
                for col, v in right[k].items():
                    acc[col] = acc.get(col, 0j) + row[k] * v
            rows.append(acc)
        out = rows
    return out


def check_ybe(
    x: complex,
    y: complex,
    nome: NomeParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[float, float]:
    """Yang-Baxter relation R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x).

    Returns (max entry residual, largest entry of R(x), R(y), R(xy)).
    Embeddings are slot-major (slot 1 varies slowest); each 8x8 operator
    and product is kept on its nonzero pattern.
    """
    xv = _as_complex(x, "x")
    yv = _as_complex(y, "y")
    rx = r_plus(xv, nome, policy)
    ry = r_plus(yv, nome, policy)
    rxy = r_plus(xv * yv, nome, policy)
    r12, r13, r23 = _embedded(rx, 1, 2), _embedded(rxy, 1, 3), _embedded(ry, 2, 3)
    lhs, rhs = _matmul(r12, r13, r23), _matmul(r23, r13, r12)
    diff = (
        lhs_row.get(col, 0j) - rhs_row.get(col, 0j)
        for lhs_row, rhs_row in zip(lhs, rhs)
        for col in lhs_row.keys() | rhs_row.keys()
    )
    return _max_abs(diff), _max_abs(rx, ry, rxy)
