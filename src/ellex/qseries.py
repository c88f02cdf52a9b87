"""q-series foundations: q-Pochhammer products, multiplicative Jacobi theta
functions, their quasi-periodicity factors, and logarithmic derivatives,
all truncated under an explicit certified policy.

Conventions (multiplicative notation throughout):

    (x; b)_inf    = prod_{n >= 0} (1 - x b^n)
    theta_a(x)    = (x; a)_inf * (a/x; a)_inf * (a; a)_inf

theta_a(x) has simple zeros exactly at x = a^n for integer n, and obeys

    theta_a(a*x)   = theta_a(1/x) = -theta_a(x)/x
    theta_a(a^s*x) = (-1)^s * a^(-s(s-1)/2) * x^(-s) * theta_a(x)

One loop, ``_product``, evaluates every product, theta's three and the
head rows of ``rmatrix.kappa_inv`` included, and one guarded quotient,
``_theta_quotient``, the theta quotients of tau, mu, the exchange functions
and the nome-shift factor.

Everything here is a pure function of its arguments; safe for concurrent
use without synchronization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    NearSingularity,
    NonConvergentBase,
    TruncationExceeded,
)

__all__ = [
    "TruncationPolicy",
    "DEFAULT_POLICY",
    "qpochhammer",
    "theta",
    "theta_shift_factor",
    "log_deriv_theta",
    "near_theta_zero",
]


@dataclass(frozen=True)
class TruncationPolicy:
    """Caps for every infinite product/series.

    ``max_terms`` bounds the factors of a product and the terms of a series;
    evaluation stops earlier once the certified tail bound drops below
    ``tail_tol``.
    """

    max_terms: int = 512
    tail_tol: float = 1e-15

    def __post_init__(self) -> None:
        if int(self.max_terms) != self.max_terms or self.max_terms < 1:
            raise DomainError("max_terms must be a positive integer")
        if not (0.0 < self.tail_tol < 1.0):
            raise DomainError("tail_tol must lie in (0, 1)")

    def tighter(self, factor: float) -> "TruncationPolicy":
        """Same cap, tail tolerance divided by ``factor`` (floored at 1e-300)."""
        return TruncationPolicy(self.max_terms, max(self.tail_tol / factor, 1e-300))


DEFAULT_POLICY = TruncationPolicy()
_ZERO_RTOL = 1e-8  # log_deriv_theta refuses x this close to a zero of theta


def _as_complex(z: complex, name: str = "argument") -> complex:
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"{name} must be finite, got {w!r}")
    return w


def _checked_base(b: complex) -> complex:
    """b as a complex number, checked to satisfy 0 < |b| < 1."""
    bv = _as_complex(b, "base")
    if not (0.0 < abs(bv) < 1.0):
        raise NonConvergentBase(
            f"base {bv!r} has modulus {abs(bv):.6g}, need 0 < |b| < 1"
        )
    return bv


def _product(x: complex, b: complex, policy: TruncationPolicy) -> complex:
    """(x; b)_inf for a base already checked to satisfy 0 < |b| < 1."""
    big = abs(b)
    headroom = (1.0 + abs(x)) / (1.0 - big)
    power = result = 1.0 + 0j
    for degree in range(policy.max_terms + 1):
        if headroom * big**degree < policy.tail_tol:
            return result
        result *= 1.0 - x * power
        if result == 0:
            return result
        power *= b
    raise TruncationExceeded(
        f"tail bound {policy.tail_tol:g} not reached within max_terms="
        f"{policy.max_terms} (base moduli {big:.4g})"
    )


def qpochhammer(
    x: complex, b: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """(x; b)_inf = prod_{n >= 0} (1 - x b^n) for a base 0 < |b| < 1.

    Stops before factor d once (1 + |x|) |b|^d / (1 - |b|) < tail_tol; past
    ``max_terms`` factors it raises TruncationExceeded.
    """
    return _product(_as_complex(x, "x"), _checked_base(b), policy)


def theta(
    a: complex, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """theta_a(x) = (x; a)_inf (a/x; a)_inf (a; a)_inf, for 0 < |a| < 1, x != 0."""
    av = _as_complex(a, "a")
    xv = _as_complex(x, "x")
    if not (0.0 < abs(av) < 1.0):
        raise DomainError(f"theta base needs 0 < |a| < 1, got |a| = {abs(av):.6g}")
    if xv == 0:
        raise DomainError("theta argument x must be nonzero")
    return (
        _product(xv, av, policy)
        * _product(av / xv, av, policy)
        * _product(av, av, policy)
    )


def theta_shift_factor(a: complex, s: int, x: complex) -> complex:
    """Quasi-periodicity factor: theta_a(a^s x) / theta_a(x) for integer s.

    Evaluated as (-1)^s * a^(-s(s-1)/2) * x^(-s); s(s-1) is always even, so
    every exponent is an integer and no fractional-power branch is chosen.
    """
    av = _as_complex(a, "a")
    xv = _as_complex(x, "x")
    if xv == 0:
        raise DomainError("shift factor needs x != 0")
    if int(s) != s:
        raise DomainError("shift order s must be an integer")
    s = int(s)
    half = (s * (s - 1)) // 2
    sign = -1.0 if s % 2 else 1.0
    return sign * av ** (-half) * xv ** (-s)


def near_theta_zero(a: complex, x: complex, rtol: float = 1e-8) -> bool:
    """True when x lies within relative rtol of a zero a^n of theta_a.

    |x a^-n - 1| < rtol needs |ln|x| - n ln|a|| < -ln(1 - rtol), so only the
    integers n in that window are tried, the window widened by a relative
    1e-9 (and 1e-9 absolute) so that rounding never drops one.  For rtol
    below about 1 - |a|^(1/2) that is at most one n.  rtol must lie in (0, 1).
    """
    if not (0.0 < rtol < 1.0):
        raise DomainError(f"rtol must lie in (0, 1), got {rtol!r}")
    av = _as_complex(a, "a")
    xv = _as_complex(x, "x")
    if xv == 0 or not (0.0 < abs(av) < 1.0):
        return False
    la = math.log(abs(av))
    center = math.log(abs(xv)) / la
    half = math.log1p(-rtol) / la
    slack = 1e-9 * (1.0 + abs(center) + half)
    lo = math.ceil(center - half - slack)
    hi = math.floor(center + half + slack)
    if lo > hi:
        return False
    log_x = cmath.log(xv)
    log_a = cmath.log(av)
    for n in range(lo, hi + 1):
        ratio = cmath.exp(log_x - n * log_a)
        if abs(ratio - 1.0) < rtol:
            return True
    return False


def _theta_quotient(
    a: complex,
    num_args: tuple[complex, ...],
    den_args: tuple[complex, ...],
    policy: TruncationPolicy,
    scale: complex = 1.0,
) -> complex:
    """prod theta_a(num_args) / (scale * prod theta_a(den_args)), each product
    formed in argument order.  Raises NearSingularity first when a denominator
    argument is near a zero of theta_a (near_theta_zero at its default rtol)."""
    for arg in den_args:
        if near_theta_zero(a, arg):
            raise NearSingularity(f"theta_a denominator zero near {arg!r}, a = {a!r}")
    num = den = 1.0 + 0j
    for arg in num_args:
        num *= theta(a, arg, policy)
    for arg in den_args:
        den *= theta(a, arg, policy)
    return num / (scale * den)


def log_deriv_theta(
    a: complex,
    x: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """x * d/dx log theta_a(x), via the term-by-term derivative of the product:

        sum_{n>=0} [ -x a^n / (1 - x a^n) + (a^(n+1)/x) / (1 - a^(n+1)/x) ]

    Stops after term n once |x a^(n+1)| and |a^(n+1)/x| are below 1/2 and
    2 (|x| + 1/|x| + 1) |a|^(n+1) / (1 - |a|) < tail_tol, which bounds the
    absolute value of the dropped terms.  Raises NearSingularity when x sits
    within relative 1e-8 of a zero of theta_a.
    """
    av = _as_complex(a, "a")
    xv = _as_complex(x, "x")
    if not (0.0 < abs(av) < 1.0):
        raise DomainError(f"theta base needs 0 < |a| < 1, got |a| = {abs(av):.6g}")
    if xv == 0:
        raise DomainError("log-derivative needs x != 0")
    if near_theta_zero(av, xv, _ZERO_RTOL):
        raise NearSingularity(f"x = {xv!r} is within {_ZERO_RTOL:g} of a theta_a zero")

    amag, xmag = abs(av), abs(xv)
    scale = 2.0 * (xmag + 1.0 / xmag + 1.0)
    total = 0j
    an = 1.0 + 0j
    for _ in range(policy.max_terms):
        t1 = -xv * an / (1.0 - xv * an)
        an = an * av
        w = an / xv
        total += t1 + w / (1.0 - w)
        if (
            abs(xv * an) < 0.5
            and abs(an / xv) < 0.5
            and scale * abs(an) / (1.0 - amag) < policy.tail_tol
        ):
            return total
    raise TruncationExceeded(
        f"log-derivative series did not meet tail {policy.tail_tol:g} "
        f"within {policy.max_terms} terms"
    )
