"""q-series foundations: q-Pochhammer products, multiplicative Jacobi theta
functions, their quasi-periodicity factors, and logarithmic derivatives,
all truncated under an explicit certified policy.

Conventions (multiplicative notation throughout):

    (x; b)_inf    = prod_{n >= 0} (1 - x b^n)
    theta_a(x)    = (x; a)_inf * (a/x; a)_inf * (a; a)_inf

theta_a(x) has simple zeros exactly at x = a^n for integer n, and obeys

    theta_a(a*x)   = theta_a(1/x) = -theta_a(x)/x
    theta_a(a^s*x) = (-1)^s * a^(-s(s-1)/2) * x^(-s) * theta_a(x)

Each product counts its factors once: ``_factor_count`` takes the least n
with (1 + |x|) |b|^n / (1 - |b|) < tail_tol from a logarithm, corrected
against that exact test, and the factor loop then runs with no test inside.
``_product`` evaluates one product (``qpochhammer``, theta's (a; a) and the
head rows of ``rmatrix.kappa_inv``); ``_theta_pair`` evaluates theta's
(x; a) and (a/x; a) in one loop over their shared powers a^n.  One guarded
quotient, ``_theta_quotient``, forms the theta quotients of tau, mu, the
exchange functions and the nome-shift factor from one (a; a) per call.
Every value is bit for bit what a loop testing the bound before each factor
gives; tests/test_qseries.py keeps that loop as the reference.  A product
that overflows raises DomainError instead of returning inf or nan.

Inside ``point_scope()`` the two products, ``_theta_pair`` and ``_product``,
remember their values: the key is the function, the exact bits of its two
complex arguments and the policy, and a call that raises stores nothing.
The verification suites open one scope per sampled point, so each distinct
theta factor of a point is formed once (the exchange functions at several
levels share most of theirs) and nothing carries over to the next point.
Outside a scope every call computes afresh, at the cost of one ContextVar
lookup.

Each argument is checked once.  ``_theta_quotient`` and
``elliptic.snh_core`` validate every argument and the base a single time.
Their near-zero test is ``_near_zero``, the unchecked core that the public
``near_theta_zero`` wraps.  Each error is still raised where the equivalent
sequence of public calls would raise it.

Everything here is a pure function of its arguments.  The memo lives in a
ContextVar, so each thread sees only its own, and concurrent use needs no
synchronization.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

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
    "point_scope",
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
# relative distance at which x counts as a zero of theta_a: near_theta_zero's
# default, so the theta quotients, log_deriv_theta and the poisson series
# all refuse the same points
_ZERO_RTOL = 1e-8

# The memo of the open point scope, None outside one.  Its keys are the
# computing function, the policy's max_terms, and the exact bits of the two
# complex arguments and of tail_tol (so 0.0 and -0.0 stay apart).
_MEMO: ContextVar[dict | None] = ContextVar("ellex_point_memo", default=None)
_BITS = struct.Struct("5d").pack


@contextmanager
def point_scope():
    """Evaluate the block with a fresh memo: each theta factor and product
    it forms at one (base, argument, policy) is computed once.  Meant for the
    calls at one sampled point; whatever was in force before is back when
    the block exits, raised or not."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _memoized(compute):
    """compute(first, second, policy), its value remembered in the open point
    scope and evaluated afresh outside one.  A call that raises stores
    nothing, so a repeated call raises again."""

    @functools.wraps(compute)
    def recall(first: complex, second: complex, policy: TruncationPolicy) -> complex:
        memo = _MEMO.get()
        if memo is None:
            return compute(first, second, policy)
        bits = _BITS(first.real, first.imag, second.real, second.imag, policy.tail_tol)
        key = (compute, policy.max_terms, bits)
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute(first, second, policy)
        return value

    return recall


def _as_complex(z: complex, name: str = "argument") -> complex:
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"{name} must be finite, got {w!r}")
    return w


def _nonzero(z: complex, name: str) -> complex:
    """z as a finite, nonzero complex number, else DomainError naming it."""
    w = _as_complex(z, name)
    if w == 0:
        raise DomainError(f"{name} must be nonzero")
    return w


def _square(z: complex, name: str) -> complex:
    """z * z as a finite, nonzero complex number, else DomainError naming the
    square: a finite z below about 1e-162 or above 1e154 underflows or
    overflows it."""
    return _nonzero(z * z, name)


def _in_disk(b: complex, name: str) -> complex:
    """b as a complex number with 0 < |b| < 1, the domain of a product base;
    else NonConvergentBase (a DomainError) naming it."""
    return _disk(_as_complex(b, name), name)


def _disk(w: complex, name: str) -> complex:
    """_in_disk for a w already checked to be a finite complex number."""
    if not (0.0 < abs(w) < 1.0):
        raise NonConvergentBase(f"|{name}| must lie in (0, 1), got {abs(w):.6g}")
    return w


def _nonzero_int(n: int, name: str) -> int:
    """n as a nonzero integer, else DomainError naming it."""
    if int(n) != n or n == 0:
        raise DomainError(f"{name} must be a nonzero integer")
    return int(n)


def _factor_count(
    headroom: float, big: float, log_big: float, policy: TruncationPolicy
) -> int:
    """Factors a product keeps: the least n with headroom * big**n < tail_tol.

    The estimate ceil(log(tail_tol / headroom) / log(big)), its logarithm
    taken as a difference so that the ratio cannot underflow, is corrected
    against that exact predicate, which falls monotonically in n, so the
    count is the one a per-factor test finds.  No n <= max_terms passing, a
    non-finite headroom included, gives max_terms + 1.
    """
    cap = policy.max_terms + 1
    if not math.isfinite(headroom):
        return cap
    tol = policy.tail_tol
    n = math.ceil((math.log(tol) - math.log(headroom)) / log_big)
    if n > cap:
        n = cap
    while n > 0 and headroom * big ** (n - 1) < tol:
        n -= 1
    while n < cap and not headroom * big**n < tol:
        n += 1
    return n


def _settled(
    x: complex, b: complex, count: int, result: complex, policy: TruncationPolicy
) -> complex:
    """The counted product's outcome as the per-factor loop decides it.

    That loop returns its first partial product that is exactly zero, and
    raises TruncationExceeded when ``count`` exceeds ``max_terms``.  Both are
    rare; only then are the same partial products formed again and searched
    (a zero ``result`` is itself the last of them).  Once exactly zero a
    partial product stays zero, since a finite headroom makes every factor
    finite, so a nonzero ``result`` within the cap is final; if it is not
    finite, the product overflowed and DomainError is raised.
    """
    if count <= policy.max_terms and result != 0:
        if not cmath.isfinite(result):
            raise DomainError(f"(x; b)_inf overflows at x = {x!r}, b = {b!r}")
        return result
    powers = accumulate(repeat(b, count - 1), mul, initial=1.0 + 0j)
    factors = (1.0 - x * power for power in powers)
    for partial in accumulate(factors, mul, initial=1.0 + 0j):
        if partial == 0:
            return partial
    raise TruncationExceeded(
        f"tail bound {policy.tail_tol:g} not reached within max_terms="
        f"{policy.max_terms} (base moduli {abs(b):.4g})"
    )


@_memoized
def _product(x: complex, b: complex, policy: TruncationPolicy) -> complex:
    """(x; b)_inf for a base already checked to satisfy 0 < |b| < 1: the
    factor count first, then a loop with no test in it."""
    big = abs(b)
    count = _factor_count((1.0 + abs(x)) / (1.0 - big), big, math.log(big), policy)
    power = result = 1.0 + 0j
    for _ in range(count):
        result *= 1.0 - x * power
        power *= b
    return _settled(x, b, count, result, policy)


@_memoized
def _theta_pair(a: complex, x: complex, policy: TruncationPolicy) -> complex:
    """(x; a)_inf * (a/x; a)_inf for a checked base and a checked x != 0;
    theta_a(x) is this times (a; a)_inf.

    Both products run in one loop over the shared powers a^n, each for its
    own factor count; the longer one then finishes alone.
    """
    y = a / x
    big = abs(a)
    room = 1.0 - big
    log_big = math.log(big)
    nx = _factor_count((1.0 + abs(x)) / room, big, log_big, policy)
    ny = _factor_count((1.0 + abs(y)) / room, big, log_big, policy)
    power = rx = ry = 1.0 + 0j
    for _ in range(min(nx, ny)):
        rx *= 1.0 - x * power
        ry *= 1.0 - y * power
        power *= a
    for _ in range(nx - ny):
        rx *= 1.0 - x * power
        power *= a
    for _ in range(ny - nx):
        ry *= 1.0 - y * power
        power *= a
    return _settled(x, a, nx, rx, policy) * _settled(y, a, ny, ry, policy)


def qpochhammer(
    x: complex, b: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """(x; b)_inf = prod_{n >= 0} (1 - x b^n) for a base 0 < |b| < 1.

    Keeps the factors d < n for the least n with
    (1 + |x|) |b|^n / (1 - |b|) < tail_tol, a count taken once per product;
    a partial product that is exactly zero is returned as it stands.  When
    that n exceeds ``max_terms`` it raises TruncationExceeded, unless one of
    the first max_terms + 1 partial products is zero.
    """
    return _product(_as_complex(x, "x"), _in_disk(b, "b"), policy)


def theta(
    a: complex, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """theta_a(x) = (x; a)_inf (a/x; a)_inf (a; a)_inf, for 0 < |a| < 1, x != 0."""
    av = _in_disk(a, "a")
    return _theta_pair(av, _nonzero(x, "x"), policy) * _product(av, av, policy)


def theta_shift_factor(a: complex, s: int, x: complex) -> complex:
    """Quasi-periodicity factor: theta_a(a^s x) / theta_a(x) for integer s.

    Evaluated as (-1)^s * a^(-s(s-1)/2) * x^(-s); s(s-1) is always even, so
    every exponent is an integer and no fractional-power branch is chosen.
    The base needs 0 < |a| < 1, as in theta.
    """
    av = _in_disk(a, "a")
    xv = _nonzero(x, "x")
    if int(s) != s:
        raise DomainError("shift order s must be an integer")
    s = int(s)
    half = (s * (s - 1)) // 2
    sign = -1.0 if s % 2 else 1.0
    try:
        factor = sign * av ** (-half) * xv ** (-s)
    except (ZeroDivisionError, OverflowError):
        factor = 0j
    if factor == 0 or not cmath.isfinite(factor):
        raise DomainError(f"theta shift factor out of floating-point range at s = {s}, x = {xv!r}")
    return factor


def near_theta_zero(a: complex, x: complex, rtol: float = _ZERO_RTOL) -> bool:
    """True when x lies within relative rtol of a zero a^n of theta_a.

    |x a^-n - 1| < rtol needs |ln|x| - n ln|a|| < -ln(1 - rtol), so only the
    integers n in that window are tried, the window widened by a relative
    1e-9 (and 1e-9 absolute) so that rounding never drops one.  For rtol
    below about 1 - |a|^(1/2) that is at most one n.  rtol must lie in (0, 1).
    """
    if not (0.0 < rtol < 1.0):
        raise DomainError(f"rtol must lie in (0, 1), got {rtol!r}")
    return _near_zero(_as_complex(a, "a"), _as_complex(x, "x"), rtol)


def _near_zero(av: complex, xv: complex, rtol: float) -> bool:
    """near_theta_zero for arguments already checked: finite complex av and
    xv, and rtol in (0, 1).  False for xv = 0 and for |av| outside (0, 1)."""
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
    formed in argument order, bit for bit what the public ``theta`` gives.
    Checks the denominator arguments first: DomainError when one is not
    finite (naming a "theta argument", not the caller's x), NearSingularity
    when one is near a zero of theta_a (near_theta_zero at its default rtol).
    (a; a)_inf is formed once per call, after the first argument's check, so
    that a bad first argument raises DomainError as theta(a, arg) would.
    Each argument and the base is checked once, and each error is raised
    where that sequence of public calls would raise it."""
    av = None
    dens = []
    for arg in den_args:
        w = _as_complex(arg, "theta argument")
        if av is None:
            av = _as_complex(a, "a")
        if _near_zero(av, w, _ZERO_RTOL):
            raise NearSingularity(f"theta_a denominator zero near {arg!r}, a = {a!r}")
        dens.append(w)
    av = _in_disk(a, "a") if av is None else _disk(av, "a")
    aa = None
    num = den = 1.0 + 0j
    for arg in num_args:
        xv = _nonzero(arg, "theta argument")
        if aa is None:
            aa = _product(av, av, policy)
        num *= _theta_pair(av, xv, policy) * aa
    for w in dens:
        if w == 0:
            raise DomainError("theta argument must be nonzero")
        if aa is None:
            aa = _product(av, av, policy)
        den *= _theta_pair(av, w, policy) * aa
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
    within relative 1e-8 of a zero of theta_a, and DomainError when 1/x
    overflows.
    """
    av = _in_disk(a, "a")
    xv = _nonzero(x, "x")
    if _near_zero(av, xv, _ZERO_RTOL):
        raise NearSingularity(f"x = {xv!r} is within {_ZERO_RTOL:g} of a theta_a zero")
    _as_complex(1.0 / xv, "1/x")  # a subnormal x: a^(n+1)/x overflows

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
