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

A rule has one home.  Where a call to it costs more than the work it
does, on the paths every point takes, its common case is copied inline
and leaves the rest to the rule, with the same value, error and message;
each copy names its share of the opcodes of one ``run_suites(["all"])`` at
seed 7 (``tools/count_opcodes.py``), so an audit can check that it still
pays.

Each base remembers the values formed at it: its products (x; a)_inf,
(a; a)_inf among them, and its theta pairs, each under the exact bits of x;
a call that raises stores nothing.  Callers keep their own values at a
base in its ``runs``.  Inside ``point_scope()`` the scope's memo holds the
bases, one per policy and type and exact bits of a, so the calls at one
base in a scope share it and all it remembers; outside a scope a base lives
for one call.  README says which callers open a scope.

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
    (a; a)_inf among them, and the theta pairs.  ``runs`` holds what callers
    keep at the base (``exchange``'s closed-form steps and ratios).
    Messages show ``given``, a as passed."""

    __slots__ = ("a", "given", "policy", "big", "log_big", "room", "log_tol", "half",
                 "slack", "cap", "powers", "products", "pairs", "runs")

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
        self.runs: dict = {}

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
    raise TruncationExceeded(
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
    """theta_a(x) = (x; a)_inf (a/x; a)_inf (a; a)_inf, for 0 < |a| < 1, x != 0."""
    base = _base(a, policy)
    pair = _theta_pair(_nonzero(x, "x"), base)
    value = pair * base.aa
    if pair and not value:
        raise DomainError(f"theta_a(x) underflows at x = {x!r}, a = {a!r}")
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
    bit for bit what the public ``theta`` gives.  Checks come first: each
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


def _log_deriv_core(x: complex, base: _Base) -> complex:
    """log_deriv_theta at a checked base and a checked x: the count of its
    terms, then a loop over them with no test in it."""
    xmag = abs(x)
    powers = _series_powers(2.0 * (xmag + 1.0 / xmag + 1.0), base, "log-derivative")
    neg_x = -x
    one, total = 1.0 + 0j, 0j  # a complex 1, as in _theta_pair
    for an, an1 in pairwise(powers):
        w = an1 / x
        total += neg_x * an / (one - x * an) + w / (one - w)
    return total
