"""q-series foundations: q-Pochhammer products, multiplicative Jacobi theta
functions, their quasi-periodicity factors, and logarithmic derivatives,
all truncated under an explicit certified policy.

Conventions (multiplicative notation throughout):

    (x; b)_inf    = prod_{n >= 0} (1 - x b^n)
    theta_a(x)    = (x; a)_inf * (a/x; a)_inf * (a; a)_inf

theta_a(x) has simple zeros exactly at x = a^n for integer n, and obeys

    theta_a(a*x)   = theta_a(1/x) = -theta_a(x)/x
    theta_a(a^s*x) = (-1)^s * a^(-s(s-1)/2) * x^(-s) * theta_a(x)

Each product and series counts its factors or terms once, at its checked
base (a ``_Base`` from ``_base``), and then loops with no test inside over
the base's powers, a table that every product and series at the base reads.
A product keeps the least n factors with (1 + |x|) |b|^n / (1 - |b|) <
tail_tol, the count ``_factor_count`` gives; a series sums over the powers
a^0 .. a^N that ``_series_powers`` gives, N the least with
scale |a^N| / (1 - |a|) < tail_tol, the bound on the terms it drops
(``log_deriv_theta`` and ``poisson.poisson_series_g``).  Each count is the
least that passes its exact test, found from a logarithmic estimate
corrected against that test.  ``_product`` forms one product,
``_theta_pair`` theta's (x; a) and (a/x; a) in one loop over their common
powers, and ``_theta_quotient`` every theta quotient from its base's
(a; a).  Every value is bit for bit what a loop testing the bound
before each factor, or after each term, gives; tests/test_qseries.py and
tests/test_poisson.py keep those loops as the reference.  A product is zero
only when one of its factors is exactly zero: one that overflows or
underflows raises DomainError, not inf, nan or 0.

From |a| = _CROSSOVER on, ``theta`` and ``_theta_quotient`` take theta
from the dual nome instead (Jacobi's imaginary transformation, see "The
dual nome" below): a Gaussian factor times theta at b = e^(4 pi^2 / log a),
whose products keep a factor or a few where the product at a keeps
hundreds, counted as ``_factor_count`` counts at a ``_Base`` of b under the
same policy.  The bit-for-bit promise holds below the crossover, where the
product is the path; above it the product stays the oracle, and the dual
has its own bound: a relative error within about
(16 + (|log|x|| + pi) / |log|a||) unit roundoffs times the condition of the
point, which tests/test_qseries_oracle.py checks against mpmath.  Its
exact arithmetic is one 100-bit fixed point: log a, the constants from it,
and each theta's Gaussian exponent, which a dual theta keeps beside its
mantissa.  A dual theta or quotient that leaves the normal double range
raises DomainError; a quotient adds its thetas' exponents exactly before
it exponentiates, so it needs no theta in range.  Where
|log|a|| < _DUAL_LEAST_LOG (|a| above about 0.99965) that bound passes
1e-12 for |x| <= 1, and the product, under max_terms, is the path again
(``_Base.dual_side`` says which).

A rule has one home.  Where a call to it costs more than the work it
does, on the paths every point takes, its common case is copied inline
and leaves the rest to the rule, with the same value, error and message;
each copy names its share of the opcodes of one ``run_suites(["all"])`` at
seed 7 (``tools/count_opcodes.py``), so an audit can check that it still
pays.

Each base remembers the values formed at it: its products (x; a)_inf,
(a; a)_inf among them, its theta pairs and its dual thetas' parts, each
under the exact bits of x, and its ``dual`` constants; a call that raises
stores nothing.  Callers keep their own values at a base in its ``runs``.
Inside ``point_scope()`` the scope's memo holds the bases, one per policy
and type and exact bits of a, so the calls at one base in a scope share it
and all it remembers; outside a scope a base lives for one call.  README
says which callers open a scope.

Check first, then compute: ``_base`` checks the base, then
``_theta_quotient`` each denominator argument (finite, nonzero, and clear of
a theta zero at ``_ZERO_RTOL``) and each numerator argument, once each and in
that order, before it forms any product.

Everything here is a pure function of its arguments.  The memo lives in a
ContextVar, so each thread sees only its own, and concurrent use needs no
synchronization.
"""

from __future__ import annotations

import cmath
import math
import struct
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import pairwise

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


# the largest tail_tol a policy takes: up to it, log_deriv_theta's count bound
# keeps |x a^N| and |a^N / x| below 1/2 (see there)
_MOST_TAIL = 1.0 - 1e-14


@dataclass(frozen=True)
class TruncationPolicy:
    """Caps for every infinite product/series.

    ``max_terms`` bounds the factors of a product and the terms of a series;
    evaluation stops earlier once the certified tail bound drops below
    ``tail_tol``, which must not exceed 1 - 1e-14 (see ``log_deriv_theta``).
    An integral float ``max_terms`` is stored as its int.
    """

    max_terms: int = 512
    tail_tol: float = 1e-15

    def __post_init__(self) -> None:
        if int(self.max_terms) != self.max_terms or self.max_terms < 1:
            raise DomainError("max_terms must be a positive integer")
        object.__setattr__(self, "max_terms", int(self.max_terms))
        if not (0.0 < self.tail_tol < 1.0):
            raise DomainError("tail_tol must lie in (0, 1)")
        if self.tail_tol > _MOST_TAIL:
            raise DomainError(f"tail_tol must be at most 1 - 1e-14, got {self.tail_tol!r}")

    def tighter(self, factor: float) -> "TruncationPolicy":
        """Same cap, tail tolerance divided by ``factor`` (floored at 1e-300)."""
        return TruncationPolicy(self.max_terms, max(self.tail_tol / factor, 1e-300))


DEFAULT_POLICY = TruncationPolicy()
# relative distance at which x counts as a zero of theta_a: near_theta_zero's
# default, so the theta quotients (snh_core's among them), log_deriv_theta and
# the poisson series all refuse the same points
_ZERO_RTOL = 1e-8
# the most powers a^n whose moduli _near_power tries against |x|; see there
_MOST_CANDIDATES = 1024
_INF = math.inf

# The memo of the open point scope, None outside one.  It maps a's type, the
# policy's max_terms and the exact bits of a and tail_tol to the one _Base
# built for them; a base keys its values by the exact bits of x (0.0 is not
# -0.0).
_MEMO: ContextVar[dict | None] = ContextVar("ellex_point_memo", default=None)
_BASE_BITS = struct.Struct("3d").pack
_X_BITS = struct.Struct("2d").pack


@contextmanager
def point_scope():
    """Evaluate the block with a fresh memo: each base it checks under one
    policy is built once, with every product and theta factor formed at it.
    Meant for the calls at one point, or at the nodes of one modes table;
    what was in force before is back when the block exits, raised or not."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _as_complex(z: complex, name: str = "argument") -> complex:
    """z as a complex number with finite parts and modulus, else DomainError naming it."""
    w = complex(z)
    try:
        if math.isfinite(abs(w)):
            return w
    except OverflowError:
        raise DomainError(f"|{name}| is out of floating-point range at {name} = {w!r}") from None
    raise DomainError(f"{name} must be finite, got {w!r}")


def _nonzero(z: complex, name: str) -> complex:
    """z as a finite, nonzero complex number, else DomainError naming it."""
    # inline: a complex z needs no conversion (0.75% of the opcodes)
    if type(z) is complex:
        try:
            if 0.0 < abs(z) < _INF:
                return z
        except OverflowError:  # _as_complex names it
            pass
    w = _as_complex(z, name)
    if w == 0:
        raise DomainError(f"{name} must be nonzero")
    return w


def _invertible(w: complex, name: str) -> complex:
    """w as ``_nonzero`` checks it, with |1/w| finite too (|w| > ~5.6e-309), else DomainError."""
    w = _nonzero(w, name)
    try:
        if abs(1.0 / w) < math.inf:
            return w
    except OverflowError:  # finite parts whose modulus overflows abs()
        pass
    raise DomainError(f"1/{name} is out of floating-point range at {name} = {w!r}")


def _square(z: complex, name: str) -> complex:
    """z * z as ``_invertible`` checks it, naming the square; |z| must lie in ~[7.5e-155, 1e154]."""
    return _invertible(z * z, name)


def _in_disk(b: complex, name: str) -> complex:
    """b as a complex number with 0 < |b| < 1, the domain of a product base;
    else NonConvergentBase (a DomainError) naming it."""
    w = _as_complex(b, name)
    if not (0.0 < abs(w) < 1.0):
        raise NonConvergentBase(f"|{name}| must lie in (0, 1), got {abs(w):.6g}")
    return w


def _nonzero_int(n: int, name: str) -> int:
    """n as a nonzero integer, else DomainError naming it."""
    if int(n) != n or n == 0:
        raise DomainError(f"{name} must be a nonzero integer")
    return int(n)


class _Base:
    """A checked base a, 0 < |a| < 1, under one policy, with what every product
    and series at it shares: |a|, log|a|, 1 - |a|, log(tail_tol), the
    half-width ``half`` of ``_near_power``'s window at _ZERO_RTOL, the
    theta pair's ``slack`` (see there), the cap max_terms + 1, the powers
    a^0, a^1, ... grown by repeated multiplication, and the values formed
    at it, each under the exact bits of its x: the products (x; a)_inf,
    (a; a)_inf among them, the theta pairs, and where ``dual_side`` (theta
    from the dual nome) each theta's ``parts`` and the base's ``dual``.
    ``runs`` holds what callers keep at the base (``exchange``'s closed-form
    steps).  Messages show ``given``, a as passed."""

    __slots__ = ("a", "given", "policy", "big", "log_big", "room", "log_tol", "half",
                 "slack", "cap", "powers", "products", "pairs", "parts", "runs", "dual",
                 "dual_side")

    def __init__(self, a: complex, given: complex, policy: TruncationPolicy) -> None:
        self.a, self.given, self.policy = a, given, policy
        self.big = big = abs(a)
        self.log_big = math.log(big)
        self.room = 1.0 - big
        self.log_tol = math.log(policy.tail_tol)
        self.half = math.log1p(-_ZERO_RTOL) / self.log_big
        # how far from an integer a factor count's estimate must lie to be
        # the count itself (see _theta_pair)
        self.cap = policy.max_terms + 1
        self.slack = 1e-12 / -self.log_big + 1e-15 * self.cap
        self.powers = [1.0 + 0j]
        self.products: dict[bytes, complex] = {}
        self.pairs: dict[bytes, complex] = {}
        self.parts: dict[bytes, tuple[complex, complex, complex]] = {}
        self.runs: dict = {}
        self.dual: _Dual | None = None
        self.dual_side = big >= _CROSSOVER and -self.log_big >= _DUAL_LEAST_LOG

    @property
    def aa(self) -> complex:
        return _product(self.a, self)

    def upto(self, count: int) -> list[complex]:
        """The table, grown to hold at least a^0 .. a^(count - 1)."""
        powers = self.powers
        if count > len(powers):
            power, a = powers[-1], self.a
            for _ in range(count - len(powers)):
                power *= a
                powers.append(power)
        return powers


def _base(a: complex, policy: TruncationPolicy, name: str = "a") -> _Base:
    """The _Base of a under policy; NonConvergentBase naming it unless
    0 < |a| < 1.  Inside a point scope, every call with the same policy and
    the same a, its type and exact bits, gets the same one.  A complex a is
    looked up before it is checked: a base stored under its type and bits
    was built from an a that passed the check."""
    memo = _MEMO.get()
    # inline: a stored complex a, found before its check (0.75% of the opcodes)
    if memo is not None and type(a) is complex:
        base = memo.get((complex, policy.max_terms, _BASE_BITS(a.real, a.imag, policy.tail_tol)))
        if base is not None:
            return base
    av = _in_disk(a, name)
    if memo is None:
        return _Base(av, a, policy)
    key = (type(a), policy.max_terms, _BASE_BITS(av.real, av.imag, policy.tail_tol))
    return memo.get(key) or memo.setdefault(key, _Base(av, a, policy))


def _factor_count(base: _Base, headroom: float) -> int:
    """Factors a product at base keeps: the least n with
    headroom * |a|**n < tail_tol, the count a per-factor test finds; no
    n <= max_terms passing, a non-finite headroom included, gives
    max_terms + 1.  The logarithmic estimate of n is corrected both ways
    against that predicate, which falls monotonically in n.  No other code
    tests the predicate."""
    tol, big, cap = base.policy.tail_tol, base.big, base.cap
    estimate = (base.log_tol - math.log(headroom)) / base.log_big
    n = math.ceil(min(estimate, cap))
    while n > 0 and headroom * big ** (n - 1) < tol:
        n -= 1
    while n < cap and not headroom * big**n < tol:
        n += 1
    return n


def _series_powers(scale: float, base: _Base, series: str) -> list[complex]:
    """The powers a^0 .. a^N a series at base sums over, N the least N >= 1
    with scale * |a^N| / (1 - |a|) < tail_tol (the bound on the terms it
    drops, in that order on the tabled a^N): a logarithmic estimate
    corrected against that test, which the falling |a^N| make monotone.
    No N <= max_terms passing, a non-finite scale included, raises
    TruncationExceeded naming the series."""
    policy = base.policy
    cap, tol, room = policy.max_terms, policy.tail_tol, base.room
    estimate = (base.log_tol + math.log(room) - math.log(scale)) / base.log_big
    n = max(math.ceil(min(estimate, cap + 1)), 1)
    powers = base.upto(n + 1)
    while n > 1 and scale * abs(powers[n - 1]) / room < tol:
        n -= 1
    while n <= cap and not scale * abs(powers[n]) / room < tol:
        n += 1
        powers = base.upto(n + 1)
    if n > cap:
        raise _unmet(series, policy)
    return powers[: n + 1]


def _unmet(series: str, policy: TruncationPolicy) -> TruncationExceeded:
    """The error of a series that meets its tail bound within no max_terms terms."""
    return TruncationExceeded(
        f"{series} series did not meet tail {policy.tail_tol:g} within {policy.max_terms} terms"
    )


def _settled(x: complex, base: _Base, count: int, result: complex) -> complex:
    """The counted product's outcome as the per-factor loop decides it.

    That loop returns its partial product at the first factor that is
    exactly zero.  With no such factor it raises TruncationExceeded when
    ``count`` exceeds ``max_terms``, and DomainError when the product
    overflowed or underflowed to zero.  A finite headroom makes every
    factor finite, so a zero factor leaves ``result`` zero and a nonzero
    ``result`` within the cap is final; only a zero or capped one, which is
    rare, has its partial products formed again and its factors searched.
    """
    policy = base.policy
    if count <= policy.max_terms and result != 0:
        if not cmath.isfinite(result):
            raise DomainError(f"(x; b)_inf overflows at x = {x!r}, b = {base.a!r}")
        return result
    partial = 1.0 + 0j
    for power in base.upto(count)[:count]:
        factor = 1.0 - x * power
        partial *= factor
        if factor == 0:
            return partial
    if count <= policy.max_terms:
        raise DomainError(f"(x; b)_inf underflows at x = {x!r}, b = {base.a!r}")
    raise _unmet_product(base)


def _unmet_product(base: _Base) -> TruncationExceeded:
    """The error of a product at base whose tail bound needs more than max_terms factors."""
    policy = base.policy
    return TruncationExceeded(
        f"tail bound {policy.tail_tol:g} not reached within max_terms="
        f"{policy.max_terms} (base moduli {base.big:.4g})"
    )


def _product(x: complex, base: _Base) -> complex:
    """(x; a)_inf at a checked base, formed once per base: ``_factor_count``
    counts its factors, a loop over the tabled powers with no test in it
    multiplies them out, and ``_settled`` decides the outcome."""
    key = _X_BITS(x.real, x.imag)
    value = base.products.get(key)
    if value is not None:
        return value
    count = _factor_count(base, (1.0 + abs(x)) / base.room)
    result = 1.0 + 0j
    for power in base.upto(count)[:count]:
        result *= 1.0 - x * power
    result = base.products[key] = _settled(x, base, count, result)
    return result


def _theta_pair(x: complex, base: _Base) -> complex:
    """(x; a)_inf * (a/x; a)_inf at a checked base and a checked x != 0,
    formed once per base; theta_a(x) is this times (a; a)_inf.

    Each product's count is ``_factor_count``'s.  Where the ceiling of its
    logarithmic estimate e = (log(tail_tol) - log(headroom)) / log|a| is
    provably that count, the pair takes it inline, and it leaves every other
    count to ``_factor_count``.  The proof: e, its logarithm taken as a
    difference so that the ratio cannot underflow, lies within
    5e-13 / |log|a|| + 4e-16 e of the exact boundary.  While
    tail_tol / headroom > e^-690, the predicate's pow and product round by
    less than 4e-16 relative wherever |a|^n is normal, which moves its
    boundary by less than 4e-16 / |log|a||, and a subnormal |a|^n passes
    it.  So when ceil(e) - e lies farther than ``base.slack`` =
    1e-12 / |log|a|| + 1e-15 (max_terms + 1) from 0 and from 1, and ceil(e)
    is below the cap, ceil(e) is the count.  An a/x that overflowed to inf
    has an infinite headroom, which ``_factor_count`` counts.

    One loop runs both products over the tabled powers a^n they share, and
    the longer one goes on alone, each product's factors in the order of its
    own loop.  An a/x whose parts are finite but whose modulus is not raises
    DomainError.
    """
    key = _X_BITS(x.real, x.imag)
    value = base.pairs.get(key)
    if value is not None:
        return value
    y = base.a / x
    try:
        ay = abs(y)
    except OverflowError:  # finite parts whose modulus overflows abs()
        raise DomainError(f"|a/x| is out of floating-point range at theta argument "
                          f"x = {x!r}, a = {base.a!r}") from None
    room, log_tol, log_big = base.room, base.log_tol, base.log_big
    slack, cap = base.slack, base.cap
    hx = (1.0 + abs(x)) / room
    hy = (1.0 + ay) / room
    ex = log_tol - math.log(hx)
    ey = log_tol - math.log(hy)
    # inline: each estimate that is the count (5.5% of the opcodes)
    nx = ny = cap  # an exponent at most -690, or -inf, leaves both open
    if ex > -690.0 and ey > -690.0:
        fx = ex / log_big
        fy = ey / log_big
        nx = math.ceil(fx)
        ny = math.ceil(fy)
    if not (nx < cap and slack < nx - fx < 1.0 - slack):
        nx = _factor_count(base, hx)
    if not (ny < cap and slack < ny - fy < 1.0 - slack):
        ny = _factor_count(base, hy)
    most, both = (nx, ny) if nx > ny else (ny, nx)
    # inline: upto's common case, a table long enough (0.73% of the opcodes)
    powers = base.powers
    if most > len(powers):
        powers = base.upto(most)
    # a complex 1 is subtracted from in one step, where a float 1.0 first
    # tries float subtraction; the bits are the same
    one = rx = ry = 1.0 + 0j
    for power in powers[:both]:
        rx *= one - x * power
        ry *= one - y * power
    for power in powers[both:nx]:
        rx *= one - x * power
    for power in powers[both:ny]:
        ry *= one - y * power
    value = rx * ry
    # inline: _settled's common case for both products (5.5% of the opcodes)
    if not (most < cap and value and cmath.isfinite(value)):
        sx, sy = _settled(x, base, nx, rx), _settled(y, base, ny, ry)
        value = sx * sy
        if sx and sy and not value:
            raise DomainError(f"theta pair underflows at x = {x!r}, a = {base.a!r}")
    base.pairs[key] = value
    return value


def qpochhammer(
    x: complex, b: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """(x; b)_inf = prod_{n >= 0} (1 - x b^n) for a base 0 < |b| < 1.

    Keeps the factors d < n for the least n with
    (1 + |x|) |b|^n / (1 - |b|) < tail_tol, a count taken once per product;
    at a factor that is exactly zero the partial product is returned as it
    stands.  When that n exceeds ``max_terms`` it raises TruncationExceeded,
    unless one of the first max_terms + 1 factors is zero.  A product that
    overflows, or underflows to zero, raises DomainError.
    """
    return _product(_as_complex(x, "x"), _base(b, policy, "b"))


def theta(
    a: complex, x: complex, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """theta_a(x) = (x; a)_inf (a/x; a)_inf (a; a)_inf, for 0 < |a| < 1, x != 0:
    the dual nome from |a| = _CROSSOVER to where its error bound passes
    1e-12, the product elsewhere."""
    base = _base(a, policy)
    xv = _nonzero(x, "x")
    if base.dual_side:
        return _dual_theta(xv, base)
    return _product_theta(xv, base)


def _product_theta(x: complex, base: _Base) -> complex:
    """theta_a(x) as the product (x; a)(a/x; a)(a; a), at a checked base and a
    checked x: the path off the dual side, and the oracle on it."""
    pair = _theta_pair(x, base)
    value = pair * base.aa
    if pair and not value:
        raise DomainError(f"theta_a(x) underflows at x = {x!r}, a = {base.given!r}")
    return value


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
    A window of more than 1024 integers raises NonConvergentBase: at any
    rtol up to 1e-3 it needs 1 - |a| < 4e-6, where every product or series
    at a needs more than 3e6 factors or terms.  False for x = 0 and for
    |a| >= 1; an a of 0 (a base that underflowed) leaves theta_0(x) = 1 - x,
    zero at x = 1.
    """
    if not (0.0 < rtol < 1.0):
        raise DomainError(f"rtol must lie in (0, 1), got {rtol!r}")
    av, xv = _as_complex(a, "a"), _as_complex(x, "x")
    if av == 0:
        return abs(xv - 1.0) < rtol
    if xv == 0 or abs(av) >= 1.0:
        return False
    la = math.log(abs(av))
    return _near_power(av, xv, rtol, la, math.log1p(-rtol) / la)


def _near_power(av: complex, xv: complex, rtol: float, la: float, half: float) -> bool:
    """near_theta_zero at 0 < |av| < 1 and xv != 0, given la = log|av| and half = log1p(-rtol) / la;
    NonConvergentBase when the window holds more than _MOST_CANDIDATES integers."""
    center = math.log(abs(xv)) / la
    slack = 1e-9 * (1.0 + abs(center) + half)
    lo = math.ceil(center - half - slack)
    hi = math.floor(center + half + slack)
    if lo > hi:
        return False
    if hi - lo >= _MOST_CANDIDATES:
        raise NonConvergentBase(
            f"|a| = {abs(av)!r} is too close to 1: {hi - lo + 1} powers a^n lie within "
            f"relative {rtol:g} of |x| = {abs(xv):.6g}, more than {_MOST_CANDIDATES} to try"
        )
    log_x = cmath.log(xv)
    log_a = cmath.log(av)
    for n in range(lo, hi + 1):
        ratio = cmath.exp(log_x - n * log_a)
        if abs(ratio - 1.0) < rtol:
            return True
    return False


def _theta_quotient(
    base: _Base,
    num_args: tuple[complex, ...],
    den_args: tuple[complex, ...],
    scale: complex = 1.0,
    *,
    factor: complex = 1.0 + 0j,
) -> complex:
    """factor * prod theta_a(num_args) / (scale * prod theta_a(den_args)) at
    a base from ``_base``, which has checked it, each product formed in
    argument order, the numerator's from the caller's prefactor ``factor``,
    bit for bit what the public ``theta`` gives; on the base's dual side,
    ``_dual_quotient``'s.  Checks come first: each
    denominator argument (DomainError unless finite and nonzero, naming a
    "theta argument", not the caller's x; NearSingularity within relative
    _ZERO_RTOL of a zero of theta_a), then each numerator argument, by
    ``_nonzero``.  Only then are the base's (a; a)_inf and the pairs
    formed.  A quotient that is not finite, because a running product
    overflowed, or that is zero with no zero factor, because one
    underflowed, raises DomainError."""
    a, log_big, half = base.a, base.log_big, base.half
    dens = []
    for arg in den_args:
        # inline: _nonzero's common case (0.49% of the opcodes)
        try:
            mag = abs(arg) if type(arg) is complex else 0.0
        except OverflowError:  # finite parts whose modulus overflows abs()
            mag = 0.0
        w = arg
        if not 0.0 < mag < _INF:
            w = _nonzero(arg, "theta argument")
            mag = abs(w)
        # inline: _near_power's empty window, as an integer lo is at most
        # floor(hi) when it is at most hi (2.5% of the opcodes)
        center = math.log(mag) / log_big
        spread = 1e-9 * (1.0 + abs(center) + half)
        if (math.ceil(center - half - spread) <= center + half + spread
                and _near_power(a, w, _ZERO_RTOL, log_big, half)):
            raise NearSingularity(f"theta_a denominator zero near {arg!r}, a = {base.given!r}")
        dens.append(w)
    nums = [_nonzero(arg, "theta argument") for arg in num_args]
    if base.dual_side:
        return _dual_quotient(base, nums, dens, scale, factor)
    # inline: base.aa once formed (0.42% of the opcodes)
    aa = base.products.get(_X_BITS(a.real, a.imag))
    if aa is None:
        aa = _product(a, base)
    num, den = factor, 1.0 + 0j
    for xv in nums:
        num *= _theta_pair(xv, base) * aa
    for w in dens:
        den *= _theta_pair(w, base) * aa
    whole = scale * den
    if not whole:
        raise DomainError(f"theta quotient denominator underflows at a = {base.a!r}")
    result = num / whole
    if not cmath.isfinite(result):
        raise DomainError(f"theta quotient out of floating-point range at a = {base.a!r}")
    if not result and factor and all(_theta_pair(xv, base) for xv in nums):
        raise DomainError(f"theta quotient underflows at a = {base.a!r}")
    return result


# ---------------------------------------------------------------------------
# The dual nome
#
# Jacobi's imaginary transformation (Whittaker-Watson 21.51), in multiplicative
# notation: with L = log a (Im L in (-pi, pi]) and l any logarithm of x,
#
#     theta_a(x) = sqrt(2 pi / -L) * exp(-W^2 / (2L)) * theta_b(e^(2 pi i l / L)),
#     W = l + pi i - L/2,    b = e^(4 pi^2 / L),
#
# and |b| = |a|^(4 pi^2 / |L|^2) < |a| whenever |L| < 2 pi: b is below 1e-22
# for real a >= 0.45, and |a|^4 at phase pi.  Changing l by 2 pi i multiplies
# the dual argument by 1/b, so l is chosen to put it in |b| < |x~| <= 1.  The
# Gaussian exponent reaches pi^2 / (2 |L|) and more, so it is formed in 100-bit
# fixed point, as are L (to about 2^-100) and the constants taken from L:
# every digit the exponent loses is a digit of theta.

# Below it theta_a is the product; at and above it, the dual nome.  0.76 is
# what tools/theta_crossover.py printed when the dual nome came in (seed 1,
# 2400 points against mpmath, |a| in [0.05, 0.99], 24 bands of equal count;
# BENCH_32.json keeps its table): the dual's worst relative error over the
# condition of the point was no worse than the product's in every band, the
# lowest included, so accuracy leaves the choice to speed, and the dual, a
# base of its own met for the first time, was no slower per call from the
# band edge |a| = 0.7574 on (a rerun read 0.7108), rounded up to two digits.
# With its exponent in fixed point the dual costs less, and the sweep now
# reads it no slower from 0.672 (BENCH_33.json); the constant stays, so that
# every input keeps its path.
_CROSSOVER = 0.76
# The dual's relative error over the condition, about
# (16 + (|log|x|| + pi) / |log|a||) 2^-53 with |x| <= 1 after the shift law,
# passes 1e-12 below this |log|a|| (|a| above about 0.99965); there the
# product, under max_terms, is the path as below the crossover.
_DUAL_LEAST_LOG = math.pi * 2.0**-53 / 1e-12

# Fixed point: a real v is the int floor(v 2^100), a complex one a pair.
_FIX = 100
_FIX_ONE = 1 << _FIX
_TWO_FIX = 2.0**_FIX
_UNIT = 2.0**-_FIX
_ROOT_HALF = 0.7071067811865476
_TINY = sys.float_info.min  # the least positive normal double


def _fixed(v: float) -> int:
    """v in 2^-100 units, rounded toward -inf (exact unless |v| < 2^-47)."""
    n, d = v.as_integer_ratio()
    return (n << _FIX) // d


# pi and log 2 to about 2^-100, as a double and the rest
_PI_FIX = _fixed(math.pi) + _fixed(1.2246467991473532e-16)
_LN2_FIX = _fixed(math.log(2.0)) + _fixed(2.3190468138462996e-17)
_PI_SQ_FIX = (_PI_FIX * _PI_FIX) >> _FIX
_TWO_PI_FIX = 2 * _PI_FIX
# the real exponents between which e^hi is a normal double
_EXP_LOW, _EXP_HIGH = -708 << _FIX, 709 << _FIX


def _unfixed(re: int, im: int) -> tuple[complex, complex]:
    """A fixed-point complex number as hi + lo doubles (float() rounds an
    int to nearest, and the scalings by powers of 2 are exact)."""
    hr, hi = float(re) * _UNIT, float(im) * _UNIT
    return complex(hr, hi), complex(float(re - int(hr * _TWO_FIX)) * _UNIT,
                                    float(im - int(hi * _TWO_FIX)) * _UNIT)


def _point_log(z: complex) -> tuple[int, int, complex, complex]:
    """(lr, li, w, log w): the principal log z in fixed point, as
    log w + e log 2 + h pi i / 2, where z turned by a power of i and scaled
    by 2^-e, both exact, is w with |arg w| <= pi/4 and |w| in [2^-1/2, 2^1/2].
    So |log w| < 0.87, cmath.log(w) errs by about 1e-16 at most, and it is
    moved to fixed point exactly."""
    re, im = z.real, z.imag
    if abs(im) <= abs(re):
        h, w = (0, z) if re > 0 else ((2 if im >= 0 else -2), -z)
    elif im > 0:
        h, w = 1, complex(im, -re)
    else:
        h, w = -1, complex(-im, re)
    mant, e = math.frexp(abs(w))
    if mant < _ROOT_HALF:
        e -= 1
    w = complex(math.ldexp(w.real, -e), math.ldexp(w.imag, -e))
    lw = cmath.log(w)
    return _fixed(lw.real) + e * _LN2_FIX, _fixed(lw.imag) + h * _PI_FIX // 2, w, lw


def _log_fixed(z: complex) -> tuple[int, int]:
    """The principal log z in fixed point to about 2^-100: ``_point_log``'s,
    p + iq = log w to about 1e-16, and one Newton step, which adds
    w e^-p (cos q - i sin q) - 1, with e^-p and e^-iq summed in fixed point
    (Taylor series at -p/64 and -q/64, then six squarings)."""
    lr, li, w, lw = _point_log(z)
    xr, xi = -_fixed(lw.real) >> 6, -_fixed(lw.imag) >> 6
    er = tr = cr = ti = _FIX_ONE
    ci = 0
    for n in range(1, 12):  # |log(w) / 64| < 1/64: 11 terms reach 2^-100
        tr = (tr * xr >> _FIX) // n
        er += tr
        ti = (ti * xi >> _FIX) // n
        if n % 2:
            ci += ti if n % 4 == 1 else -ti
        else:
            cr += ti if n % 4 == 0 else -ti
    for _ in range(6):
        er = er * er >> _FIX
        cr, ci = (cr * cr - ci * ci) >> _FIX, (cr * ci) >> (_FIX - 1)
    er_r, er_i = er * cr >> _FIX, er * ci >> _FIX
    wr, wi = _fixed(w.real), _fixed(w.imag)
    return (lr + ((wr * er_r - wi * er_i) >> _FIX) - _FIX_ONE,
            li + ((wr * er_i + wi * er_r) >> _FIX))


class _Dual:
    """What theta at a base a shares on the dual side, as fixed-point pairs
    from L = log a: ``log`` = L, ``c`` = -1/(2L), ``m`` = 2 pi i / L and
    ``t`` = 4 pi^2 / L, its imaginary part turned into [-pi, pi); and the
    prefactor ``pref`` = sqrt(2 pi / -L).  The dual nome b = e^t, 0 where it
    underflows, keeps count factors in each product for an argument of
    modulus up to 1: 1 where 2 |b| / (1 - |b|) < tail_tol, else
    ``_factor_count``'s at b's _Base under the same policy and the headroom
    2 / (1 - |b|).  ``powers`` holds b^0 .. b^(count - 1), and ``bb`` is
    (b; b)_inf, 1 - b where one factor does.  From |b| = _CROSSOVER on,
    ``inner`` is b's own _Dual instead: |log|b|| is then at least 3.9
    |log|a||, so b is on its dual side too."""

    __slots__ = ("log", "c", "m", "t", "pref", "powers", "bb", "inner")

    def __init__(self, lr: int, li: int, policy: TruncationPolicy) -> None:
        self.log = (lr, li)
        # c = -1/(2L) = -conj(L) / (2 |L|^2), m = -4 pi i c and t = -8 pi^2 c
        twice_norm = 2 * (lr * lr + li * li)  # exact, in 2^-200 units
        cr, ci = (-lr << 2 * _FIX) // twice_norm, (li << 2 * _FIX) // twice_norm
        mr, mi = (4 * _PI_FIX * ci) >> _FIX, (-4 * _PI_FIX * cr) >> _FIX
        tr, ti = (-8 * _PI_SQ_FIX * cr) >> _FIX, (-8 * _PI_SQ_FIX * ci) >> _FIX
        ti -= (ti + _PI_FIX) // _TWO_PI_FIX * _TWO_PI_FIX
        self.c, self.m, self.t = (cr, ci), (mr, mi), (tr, ti)
        self.pref = cmath.sqrt(1j * _unfixed(mr, mi)[0])
        th, tl = _unfixed(tr, ti)
        b = cmath.exp(th) * (1.0 + tl) if th.real > -745.0 else 0j
        big = abs(b)
        self.powers, self.bb, self.inner = (1.0 + 0j,), 1.0 - b, None
        if big >= _CROSSOVER:
            self.inner = _Dual(tr, ti, policy)
        elif 2.0 * big >= policy.tail_tol * (1.0 - big):
            base = _Base(b, b, policy)
            count = _factor_count(base, 2.0 / base.room)
            if count > policy.max_terms:
                raise _unmet_product(base)
            self.powers = tuple(base.upto(count)[:count])
            self.bb = base.aa


def _dual_of(base: _Base) -> _Dual:
    """The base's _Dual, formed at its first dual theta."""
    base.dual = _Dual(*_log_fixed(base.a), base.policy)
    return base.dual


def _dual_parts(x: complex, base: _Base) -> tuple[complex, int, int]:
    """theta_a(x) = mantissa * e^(gr + i gi) from the dual nome, the exponent
    in fixed point, at a checked base on its dual side and a checked x,
    formed once per base from ``_point_log``'s log of x."""
    key = _X_BITS(x.real, x.imag)
    parts = base.parts.get(key)
    if parts is None:
        lr, li, _, _ = _point_log(x)
        parts = base.parts[key] = _dual_core(lr, li, base.dual or _dual_of(base))
    return parts


def _dual_theta(x: complex, base: _Base) -> complex:
    """theta_a(x) from ``_dual_parts``; DomainError when it leaves the
    normal floating-point range, where it would have lost digits."""
    value, problem = _exp_parts(*_dual_parts(x, base))
    if problem:
        raise DomainError(f"theta_a(x) {problem} at x = {x!r}, a = {base.given!r}")
    return value


def _exp_parts(mantissa: complex, gr: int, gi: int) -> tuple[complex, str]:
    """mantissa * e^(gr + i gi), the exponent in fixed point, and "overflows"
    or "underflows" where a nonzero mantissa gives a value outside the normal
    floating-point range ("" inside it); a zero mantissa, from a zero factor,
    is the value.  The exponent is rounded once, to hi + lo doubles, and
    e^hi (1 + lo) taken; where e^hi alone would leave the normal range,
    log|mantissa|, rounded once, joins the exponent first."""
    if not mantissa:
        return mantissa, ""
    if not _EXP_LOW < gr < _EXP_HIGH:
        size = abs(mantissa)
        gr += _fixed(math.log(size))
        mantissa /= size
    hi, lo = _unfixed(gr, gi)
    try:
        value = mantissa * (cmath.exp(hi) * (1.0 + lo))
    except OverflowError:
        return _INF, "overflows"
    if not cmath.isfinite(value):
        return value, "overflows"
    if abs(value) < _TINY:
        return value, "underflows"
    return value, ""


def _dual_quotient(base: _Base, nums: list, dens: list, scale: complex,
                   factor: complex) -> complex:
    """factor * prod theta_a(nums) / (scale * prod theta_a(dens)) from their
    ``_dual_parts``: the mantissas multiply, and the fixed-point exponents
    add exactly before one exponential, so that no theta need be in range
    for the quotient to be."""
    num, den, gr, gi = factor, scale, 0, 0
    for arg in nums:
        mantissa, r, i = _dual_parts(arg, base)
        num *= mantissa
        gr += r
        gi += i
    for arg in dens:
        mantissa, r, i = _dual_parts(arg, base)
        den *= mantissa
        gr -= r
        gi -= i
    if not den:
        raise DomainError(f"theta quotient denominator underflows at a = {base.a!r}")
    value, problem = _exp_parts(num / den, gr, gi)
    if problem:
        raise DomainError(f"theta quotient {problem} at a = {base.a!r}")
    return value


def _dual_core(lr: int, li: int, dual: _Dual) -> tuple[complex, int, int]:
    """theta_a(e^l) = mantissa * e^(gr + i gi), for l = lr + i li in fixed
    point: the mantissa is sqrt(2 pi / -L) theta_b(u), and the exponent
    G = -W^2 / (2L), in fixed point.  Where b takes its own dual,
    theta_b(u) is a mantissa and an exponent too, and its exponent joins G,
    so that theta_b(u) need not be in range.

    z = m l - k t, with k = floor(Re(m l) / Re t), has its real part in
    (Re t, 0], so that u = e^z has modulus in (|b|, 1]: z is m times the log
    l + 2 pi i k of x, and the Gaussian takes W = l + (2k + 1) pi i - L/2.
    z, its imaginary part turned into [-pi, pi), and G are exact up to
    truncations at 2^-100; u = e^z and b / u = e^(t - z) round their
    exponents once each.
    """
    (mr, mi), (tr, ti) = dual.m, dual.t
    zr = (mr * lr - mi * li) >> _FIX
    zi = (mr * li + mi * lr) >> _FIX
    k = zr // tr
    zr -= k * tr
    zi -= k * ti
    zi -= (zi + _PI_FIX) // _TWO_PI_FIX * _TWO_PI_FIX
    if dual.inner is not None:
        inner, gr, gi = _dual_core(zr, zi, dual.inner)
    else:
        u = cmath.exp(complex(zr * _UNIT, zi * _UNIT))
        v = cmath.exp(complex((tr - zr) * _UNIT, (ti - zi) * _UNIT))
        inner, gr, gi = dual.bb, 0, 0
        for power in dual.powers:
            inner *= (1.0 - u * power) * (1.0 - v * power)
    # 2W = 2l + (2k + 1) 2 pi i - L, and G = c W^2 = c (2W)^2 / 4
    (big_r, big_i), (cr, ci) = dual.log, dual.c
    wr = 2 * lr - big_r
    wi = 2 * li + (2 * k + 1) * _TWO_PI_FIX - big_i
    sr, si = wr * wr - wi * wi, 2 * wr * wi
    gr += (cr * sr - ci * si) >> (2 * _FIX + 2)
    gi += (cr * si + ci * sr) >> (2 * _FIX + 2)
    return dual.pref * inner, gr, gi


def log_deriv_theta(
    a: complex,
    x: complex,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """x * d/dx log theta_a(x), via the term-by-term derivative of the product:

        sum_{n>=0} [ -x a^n / (1 - x a^n) + (a^(n+1)/x) / (1 - a^(n+1)/x) ]

    Keeps the terms n < N for the least N >= 1 with
    2 (|x| + 1/|x| + 1) |a^N| / (1 - |a|) < tail_tol, which bounds the
    absolute value of the dropped terms; ``_series_powers`` counts them once,
    at the checked base, and the loop over its powers tests nothing.  The
    bound also keeps |x a^N| and |a^N / x| below 1/2 (for any tail_tol up to
    1 - 1e-14, the most a policy allows), so the value is bit for bit what
    testing all three after every term gives.  Raises NearSingularity when x sits within
    relative 1e-8 of a zero of theta_a, and DomainError when 1/x overflows.
    """
    base = _base(a, policy)
    xv = _nonzero(x, "x")
    if _near_power(base.a, xv, _ZERO_RTOL, base.log_big, base.half):
        raise NearSingularity(f"x = {xv!r} is within {_ZERO_RTOL:g} of a theta_a zero")
    _as_complex(1.0 / xv, "1/x")  # a subnormal x: a^(n+1)/x overflows
    return _log_deriv_core(xv, base)


def _log_deriv_core(x: complex, base: _Base, powers: list[complex] | None = None) -> complex:
    """log_deriv_theta at a checked base and a checked x: the count of its
    terms, unless the caller passes the powers that count gives, then a loop
    over them with no test in it."""
    if powers is None:
        xmag = abs(x)
        powers = _series_powers(2.0 * (xmag + 1.0 / xmag + 1.0), base, "log-derivative")
    neg_x = -x
    one, total = 1.0 + 0j, 0j  # a complex 1, as in _theta_pair
    for an, an1 in pairwise(powers):
        w = an1 / x
        total += neg_x * an / (one - x * an) + w / (one - w)
    return total
