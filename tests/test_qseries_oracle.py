"""Two-base q-Pochhammer products and kappa_inv against a 40-digit oracle.

The oracle is mpmath's one-base ``qp`` nested over rows of the larger base,
(x; a, b) = prod_n (x a^n; b), for the rows with |x a^n| > 1/2.  The rows
after them are summed exactly through

    log (z; a, b)_inf = -sum_{j >= 1} z^j / (j (1 - a^j) (1 - b^j)),  |z| <= 1/2,

so the oracle truncates nothing beyond its 40 digits.  Each comparison
asserts the error the library claims: ``tail_tol`` (which bounds four times
the dropped sum) plus a first-order roundoff budget, not a fixed constant.
"""

import cmath
from functools import lru_cache

import pytest

from ellex.qseries import TruncationPolicy, qpochhammer
from ellex.rmatrix import kappa_inv

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

EPS = 2.0**-53  # unit roundoff of a double
MAX_TERMS = 512


def _nested_oracle(x, a, b):
    """(x; a, b)_inf for mpc arguments, at the working precision."""
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


@lru_cache(maxsize=None)
def qp2_oracle(x, a, b):
    with mp.workdps(40):
        return complex(_nested_oracle(mp.mpc(x), mp.mpc(a), mp.mpc(b)))


@lru_cache(maxsize=None)
def kappa_inv_oracle(y, p, q):
    with mp.workdps(40):
        y, p, q = mp.mpc(y), mp.mpc(p), mp.mpc(q)
        q2, q4 = q**2, q**4
        num = den = mp.one
        for z in (q4 / y, q2 * y, p / y, p * q2 * y):
            num *= _nested_oracle(z, p, q4)
        for z in (q4 * y, q2 / y, p * y, p * q2 / y):
            den *= _nested_oracle(z, p, q4)
        return complex(num / den)


def claimed_error(x, a, b, tail_tol):
    """Relative error that qpochhammer(x, (a, b)) claims: tail_tol plus roundoff.

    Every factor 1 - z, z = x a^n b^k, that the product can keep has
    |z| >= tail_tol (1-|a|)(1-|b|) / (4 (MAX_TERMS + 1)).  Over that superset
    the budget charges each factor sqrt(5)+1 roundings for the subtraction
    and the complex multiplication into the product, and (n+k)(sqrt(5)+4)+4
    roundings of z, for its n+k multiplications and for up to four roundings
    of x, a and b when the caller formed them, amplified by |z| / |1 - z|.
    """
    amag, bmag = abs(a), abs(b)
    t_min = tail_tol * (1 - amag) * (1 - bmag) / (4 * (MAX_TERMS + 1))
    budget = 0.0
    head, n = complex(x), 0
    while abs(head) >= t_min:
        z, k = head, 0
        while abs(z) >= t_min:
            steps = (n + k) * (5**0.5 + 4) + 4
            budget += 5**0.5 + 1 + steps * abs(z) / abs(1 - z)
            z, k = z * b, k + 1
        head, n = head * a, n + 1
    return tail_tol + budget * EPS


def cis(r, phi):
    return r * cmath.exp(1j * phi)


BASE_PAIRS = [
    (0.3, 0.2j),
    (cis(0.6, 1.0), 0.5),
    (0.9, cis(0.4, 2.0)),
    (0.2, 0.9j),  # the larger base second
    (-0.9, -0.7),
    (cis(0.85, -0.7), cis(0.9, 2.5)),
]
X_POINTS = [0.4 + 0.3j, cis(1.4, 2.7)]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("x", X_POINTS)
@pytest.mark.parametrize("a,b", BASE_PAIRS)
def test_qpochhammer_two_base_within_claim(a, b, x, tail_tol):
    val = qpochhammer(x, (a, b), TruncationPolicy(MAX_TERMS, tail_tol))
    ref = qp2_oracle(x, a, b)
    assert abs(val - ref) / abs(ref) <= claimed_error(x, a, b, tail_tol)


KAPPA_POINTS = [
    (1.1 + 0.2j, 0.5, -0.6),
    (cis(0.7, 2.0), 0.9, cis(0.65, 0.4)),
    (cis(1.8, -1.0), 0.2, cis(0.5, 2.2)),
]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("y,p,q", KAPPA_POINTS)
def test_kappa_inv_within_claim(y, p, q, tail_tol):
    val = kappa_inv(y, p, q, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = kappa_inv_oracle(y, p, q)
    q2, q4 = q**2, q**4
    args = (q4 / y, q2 * y, p / y, p * q2 * y, q4 * y, q2 / y, p * y, p * q2 / y)
    # first order: the relative errors of the eight products add, plus the
    # seven multiplications and one division that combine them
    claim = sum(claimed_error(z, p, q4, tail_tol) for z in args) + 8 * 5**0.5 * EPS
    assert abs(val - ref) / abs(ref) <= claim
