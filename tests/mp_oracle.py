"""Raised-precision references for the tests and tools, computed with mpmath.

    import mp_oracle    # from tests/, or with tests/ on sys.path

Each reference takes a path independent of ellex's:

- theta_a(x) is the Jacobi triple-product series
  sum_n (-1)^n a^(n(n-1)/2) x^n, summed from its largest term outward at 30
  digits plus the digits its terms cancel, and never below the caller's
  working precision.  It is the one theta here: tau, mu and snh are its
  quotients, and the tests form the exchange steps from it.
- The log-derivative x d/dx log theta_a(x) is the ratio of that series'
  x-derivative to the series; g and the center are sums of log-derivatives
  in the base q^4.
- Products are mpmath's ``qp``, which sums the q-binomial series rather than
  multiplying factors: the one-base products, the rows of kappa_inv's
  two-base products and mu's (p; p) factors.
- K and K' are mpmath's ``ellipk``, and snh(u) = -i sn(iu) its ``ellipfun``.

A reference named for a library function returns a complex rounded from 40
digits (K and K' an mpf of 40 digits), at the arguments that function forms
in doubles where its name ends in ``_args``.  ``theta``, ``log_deriv`` and
``snh_form`` return mpmath numbers for callers that keep computing with them.
The module imports no test framework, so tools import it too.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, wraps

import mpmath

mp = mpmath.mp
DIGITS = 40  # the precision of the references named for library functions


def _reference(f):
    """f cached, evaluated at DIGITS digits and rounded to a complex."""

    @lru_cache(maxsize=None)
    @wraps(f)
    def at_digits(*args) -> complex:
        with mp.workdps(DIGITS):
            return complex(f(*args))

    return at_digits


def zero_distance(a, x) -> float:
    """Relative distance from x to the nearest zero a^n of theta_a."""
    a, x = complex(a), complex(x)
    la, lx = cmath.log(a), cmath.log(x)
    center = round(math.log(abs(x)) / math.log(abs(a)))
    return min(abs(cmath.exp(lx - n * la) - 1.0) for n in range(center - 2, center + 3))


@lru_cache(maxsize=None)
def _series(a, x, dps: int) -> tuple:
    """(theta_a(x), x theta_a'(x)) from the triple-product series, summed by
    recurrence from its largest term outward.  The precision is 30 digits,
    or dps if more, plus log10 of the ratio of that term to a lower bound on
    |theta|, e^(-pi^2 / (2 |log|a||)) times the distance to a zero: about
    250 digits at |a| = 0.99 and 5400 at 0.9996.  Two mpc at that precision."""
    la, lx = math.log(abs(a)), math.log(abs(x))
    peak = round(0.5 - lx / la)
    big = peak * lx + peak * (peak - 1) / 2 * la
    small = -math.pi**2 / (2 * abs(la)) + math.log(zero_distance(a, x)) - 10
    digits = max(30, dps) + (big - small) / math.log(10)
    with mp.workdps(int(digits) + 10):
        am, xm = mp.mpc(a), mp.mpc(x)
        stop = mp.exp(big) * mp.mpf(10) ** (-int(digits) - 5)
        top = (-1) ** peak * am ** (peak * (peak - 1) // 2) * xm**peak
        total, derivative = top, peak * top
        for step in (1, -1):
            # term n + 1 is -a^n x times term n, and term n - 1 is -a^(1-n) / x
            # times it; either ratio gains a factor a with each step
            n, term = peak, top
            ratio = -(am**peak) * xm if step == 1 else -(am ** (1 - peak)) / xm
            while True:
                term *= ratio
                ratio *= am
                n += step
                total += term
                derivative += n * term
                if abs(term) < stop and abs(n - peak) > 3:
                    break
        return +total, +derivative


def theta(a, x):
    """theta_a(x), an mpc at the series' precision."""
    return _series(a, x, mp.dps)[0]


def log_deriv(a, x):
    """x d/dx log theta_a(x), an mpc at the working precision."""
    series, derivative = _series(a, x, mp.dps)
    return derivative / series


# --- products -------------------------------------------------------------------


@_reference
def qpochhammer(x, b):
    """(x; b)_inf."""
    return mp.qp(mp.mpc(x), mp.mpc(b))


def _nested(x, a, b):
    """(x; a, b)_inf for mpc arguments, at the working precision: ``qp``
    nested over rows of the larger base, (x; a, b) = prod_n (x a^n; b), for
    the rows with |x a^n| > 1/2, and the rows after them summed exactly by

        log (w; a, b)_inf = -sum_{j >= 1} w^j / (j (1 - a^j) (1 - b^j)),

    so nothing is truncated beyond the working precision."""
    if abs(a) < abs(b):
        a, b = b, a
    head = mp.one
    while abs(x) > 0.5:
        head *= mp.qp(x, b)
        x *= a
    log_tail = mp.zero
    j, xj, aj, bj = 1, x, a, b
    while abs(xj) > mp.mpf(10) ** (-mp.dps - 5):
        log_tail -= xj / (j * (1 - aj) * (1 - bj))
        j, xj, aj, bj = j + 1, xj * x, aj * a, bj * b
    return head * mp.exp(log_tail)


@_reference
def kappa_inv(y, p, q):
    """1 / kappa(y), a quotient of eight double-base products (z; p, q^4)."""
    y, p, q = mp.mpc(y), mp.mpc(p), mp.mpc(q)
    q2, q4 = q**2, q**4
    num = den = mp.one
    for z in (q4 / y, q2 * y, p / y, p * q2 * y):
        num *= _nested(z, p, q4)
    for z in (q4 * y, q2 / y, p * y, p * q2 / y):
        den *= _nested(z, p, q4)
    return num / den


def mu_args(x, p, q) -> tuple:
    """What mu_inv forms in doubles: x^2, the base p^2, and its thetas'
    arguments p x^2 and q^2 (numerator) and q^2 x^2 (denominator)."""
    x2, q2 = x * x, q * q
    return x2, p * p, (p * x2, q2), q2 * x2


@_reference
def mu_inv(x, p, q):
    """1 / mu(x) = kappa_inv(x^2) (p^2; p^2) / (p; p)^2 times a theta
    quotient in the base p^2, at the arguments mu_inv forms."""
    x2, p2, (n1, n2), d = mu_args(x, p, q)
    thetas = theta(p2, n1) * theta(p2, n2) / theta(p2, d)
    const = mp.qp(mp.mpc(p2), mp.mpc(p2)) / mp.qp(mp.mpc(p), mp.mpc(p)) ** 2
    return kappa_inv(x2, p, q) * const * thetas


# --- theta quotients and log-derivative sums ------------------------------------


def tau_args(x, q) -> tuple:
    """The base and the two theta arguments tau_fn(x, q) forms."""
    x, q = complex(x), complex(q)
    return q**4, x * x * q, q / (x * x)


@_reference
def tau(x, q):
    """tau(x) = theta_{q^4}(x^2 q) / (x theta_{q^4}(q / x^2))."""
    a, num, den = tau_args(x, q)
    return theta(a, num) / (mp.mpc(x) * theta(a, den))


@_reference
def log_deriv_theta(a, x):
    """x d/dx log theta_a(x)."""
    return log_deriv(a, x)


@_reference
def series_g(x, q):
    """g(x) = -1 + 2 L(x^2) + 2 L(q^2 / x^2), L the log-derivative in the
    base q^4."""
    x2, q = mp.mpc(x) ** 2, mp.mpc(q)
    q4 = q**4
    return -1 + 2 * log_deriv(q4, x2) + 2 * log_deriv(q4, q * q / x2)


def center_args(x, q) -> tuple:
    """The base q^4 and the four log-derivative arguments q^2 x^2, x^-2,
    q^2 x^-2 and x^2 (signs +, +, -, -) that poisson_structure_center forms."""
    x, q = complex(x), complex(q)
    x2, q2 = x * x, q * q
    return q**4, (q2 * x2, 1 / x2, q2 / x2, x2)


@_reference
def center(x, q):
    """The central bracket -2 ln q (L(q^2 x^2) + L(x^-2) - L(q^2 x^-2) - L(x^2))."""
    a, args = center_args(x, q)
    l1, l2, l3, l4 = (log_deriv(a, y) for y in args)
    return -2 * mp.log(mp.mpc(q)) * (l1 + l2 - l3 - l4)


# --- elliptic layer -------------------------------------------------------------


def complete_K(k):
    """K(k), an mpf."""
    with mp.workdps(DIGITS):
        return +mp.ellipk(mp.mpf(k) ** 2)


def K_prime(k):
    """K(k') = K(sqrt(1 - k^2)), an mpf."""
    with mp.workdps(DIGITS):
        return +mp.ellipk(1 - mp.mpf(k) ** 2)


@_reference
def snh(u, k):
    """snh(u) = -i sn(iu, k)."""
    return -1j * mp.ellipfun("sn", 1j * mp.mpf(u), m=mp.mpf(k) ** 2)


def snh_form(y, p):
    """p^(1/4) y theta_{p^2}(y^-2) / theta_{p^2}(p y^-2), snh's theta form
    with y = exp(pi u / 2K) and p = exp(-pi K'/K), at the working precision."""
    p2, w = p * p, 1 / (y * y)
    return p ** mp.mpf(0.25) * y * theta(p2, w) / theta(p2, p * w)
