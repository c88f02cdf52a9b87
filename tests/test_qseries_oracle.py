"""q-Pochhammer products, theta, kappa_inv, complete_K and jacobi_snh against
a 40-digit oracle.

One-base products and theta are compared with mpmath's ``qp``, which sums
the q-binomial series rather than multiplying factors.  The two-base oracle
is ``qp`` nested over rows of the larger base, (x; a, b) = prod_n (x a^n; b),
for the rows with |x a^n| > 1/2.  The rows after them are summed exactly
through

    log (z; a, b)_inf = -sum_{j >= 1} z^j / (j (1 - a^j) (1 - b^j)),  |z| <= 1/2,

so the oracle truncates nothing beyond its 40 digits.  K and snh are
compared with mpmath's ``ellipk`` and ``ellipfun``.  Each comparison
asserts the error the library claims: ``tail_tol`` (which bounds four times
the dropped sum) plus a first-order roundoff budget, not a fixed constant.
"""

import cmath
import math
from functools import lru_cache

import pytest

from ellex.elliptic import complete_K, jacobi_snh
from ellex.qseries import TruncationPolicy, qpochhammer, theta
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


# --- one base and theta --------------------------------------------------------


@lru_cache(maxsize=None)
def qp1_oracle(x, b):
    with mp.workdps(40):
        return complex(mp.qp(mp.mpc(x), mp.mpc(b)))


@lru_cache(maxsize=None)
def theta_oracle(a, x):
    with mp.workdps(40):
        a, x = mp.mpc(a), mp.mpc(x)
        return complex(mp.qp(x, a) * mp.qp(a / x, a) * mp.qp(a, a))


def claimed_error_one_base(x, b, tail_tol):
    """Relative error that qpochhammer(x, (b,)) claims: tail_tol plus roundoff.

    The loop keeps factor n, 1 - z with z = x b^n, while
    (1 + |x|) |b|^n / (1 - |b|) >= tail_tol.  Each kept factor costs sqrt(5)+1
    roundings for the subtraction and the multiplication into the product,
    plus (n+1)(sqrt(5)+4)+4 roundings of z (its n+1 multiplications and up to
    four roundings of x when the caller formed it), amplified by the factor's
    condition |z| / |1 - z|.  The factor nearest a zero b^-n of the product
    carries the point's condition 1 / |x b^n - 1| (to within 1), so near a
    zero the budget grows with the point's condition.
    """
    bmag = abs(b)
    t_min = tail_tol * (1 - bmag) / (1 + abs(x))
    budget, z, n = 0.0, complex(x), 0
    while bmag**n >= t_min:
        steps = (n + 1) * (5**0.5 + 4) + 4
        budget += 5**0.5 + 1 + steps * abs(z) / abs(1 - z)
        z, n = z * b, n + 1
    return tail_tol + budget * EPS


def claimed_error_theta(a, x, tail_tol):
    """theta_a(x) = (x; a)(a/x; a)(a; a): the three claims add, plus the two
    multiplications that combine them.  A zero x = a^m of theta is a zero of
    the first product for m <= 0 and of the second for m >= 1."""
    return (
        claimed_error_one_base(x, a, tail_tol)
        + claimed_error_one_base(a / x, a, tail_tol)
        + claimed_error_one_base(a, a, tail_tol)
        + 2 * 5**0.5 * EPS
    )


ONE_BASES = [0.3j, cis(0.6, 1.0), -0.9, cis(0.92, 2.0)]
GENERIC_X = X_POINTS + [cis(3.0, -0.5)]
# (relative distance to a zero, phase) of the points placed near one
NEAR_ZERO = [(1e-7, 0.3), (1e-6, 1.1), (1e-5, 2.0), (1e-4, -1.2)]


def _one_base_points(b):
    """Generic points, and points near the zeros x = b^-n of (x; b)_inf."""
    near = zip((0, 1, 2, 5), NEAR_ZERO)
    return GENERIC_X + [b**-n * (1 + cis(d, phi)) for n, (d, phi) in near]


def _theta_points(a):
    """Generic points, and points near the zeros x = a^m of theta_a."""
    near = zip((-2, 0, 1, 3), NEAR_ZERO)
    return GENERIC_X + [a**m * (1 + cis(d, phi)) for m, (d, phi) in near]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("b,x", [(b, x) for b in ONE_BASES for x in _one_base_points(b)])
def test_qpochhammer_one_base_within_claim(b, x, tail_tol):
    val = qpochhammer(x, (b,), TruncationPolicy(MAX_TERMS, tail_tol))
    ref = qp1_oracle(x, b)
    assert abs(val - ref) / abs(ref) <= claimed_error_one_base(x, b, tail_tol)


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("a,x", [(a, x) for a in ONE_BASES for x in _theta_points(a)])
def test_theta_within_claim(a, x, tail_tol):
    val = theta(a, x, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = theta_oracle(a, x)
    assert abs(val - ref) / abs(ref) <= claimed_error_theta(a, x, tail_tol)


# --- elliptic layer: complete_K and jacobi_snh -----------------------------------


def agm_steps(k):
    """AGM steps from (1, k') until the iterates agree to a unit roundoff."""
    with mp.workdps(40):
        a, b, n = mp.one, mp.sqrt(1 - mp.mpf(k) ** 2), 0
        while abs(a - b) > EPS * a:
            a, b, n = (a + b) / 2, mp.sqrt(a * b), n + 1
    return n


def claimed_error_K(k):
    """Relative error that complete_K(k) claims; the AGM truncates nothing.

    b = sqrt(1 - k^2) costs 1/(2(1 - k^2)) + 3/2 roundings.  The AGM limit
    is homogeneous and increasing in both arguments, so its relative error
    is at most the largest relative error of an iterate: 3/2 roundings per
    step, charged 2, over the steps until the iterates meet and one more.
    After that they stay within two ulps (4 roundings), and pi / (2a)
    costs 2 more.
    """
    return EPS * (1 / (2 * (1 - k * k)) + 1.5 + 2 * (agm_steps(k) + 1) + 6)


@pytest.mark.parametrize("k", [1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
def test_complete_K_within_claim(k):
    with mp.workdps(40):
        ref = mp.ellipk(mp.mpf(k) ** 2)
        assert abs(complete_K(k) - ref) / ref <= claimed_error_K(k)


def _snh_oracle_form(y, p):
    """p^(1/4) y theta_{p^2}(y^-2) / theta_{p^2}(p y^-2), at the working precision."""
    p2, w = p * p, 1 / (y * y)
    num = mp.qp(w, p2) * mp.qp(p2 / w, p2)
    den = mp.qp(p * w, p2) * mp.qp(p / w, p2)
    return p ** mp.mpf(0.25) * y * num / den


@lru_cache(maxsize=None)
def claimed_error_snh(u, k, tail_tol):
    """Relative error that jacobi_snh(u, k) claims: tail_tol plus roundoff.

    snh = k^(-1/2) S(y, p), S = p^(1/4) T(y), with p = exp(-pi K'/K) and
    y = exp(pi u / 2K) formed from the computed K and K'.  The relative
    errors of p and y reach S through its conditions |p dS/dp / S| and
    |y dS/dy / S|.  K' = complete_K(k') takes the rounded k' = sqrt(1 - k^2),
    amplified by the condition of K at k'.  The two theta claims carry the
    tails and their own roundoff, and 8 roundings cover k^(-1/2), p^(1/4)
    and the products and quotient that combine the factors.
    """
    kp = math.sqrt(1.0 - k * k)
    with mp.workdps(40):
        mk, mkp = mp.mpf(k), mp.mpf(kp)
        K, Kp = mp.ellipk(mk**2), mp.ellipk(mkp**2)
        cond_Kp = abs(mp.diff(lambda t: mp.ellipk(t * t), mkp) * mkp / Kp)
        p, y = mp.exp(-mp.pi * Kp / K), mp.exp(mp.pi * u / (2 * K))
        S = _snh_oracle_form(y, p)
        cond_p = abs(mp.diff(lambda t: _snh_oracle_form(y, t), p) * p / S)
        cond_y = abs(mp.diff(lambda t: _snh_oracle_form(t, p), y) * y / S)
        e_K = claimed_error_K(k)
        e_Kp = claimed_error_K(kp) + cond_Kp * EPS * (1 / (2 * (1 - k * k)) + 1.5)
        e_p = mp.pi * Kp / K * (e_K + e_Kp + 3 * EPS) + EPS
        e_y = mp.pi * abs(u) / (2 * K) * (e_K + 3 * EPS) + EPS
        p2, w = float(p) ** 2, float(1 / (y * y))
        thetas = claimed_error_theta(p2, w, tail_tol) + claimed_error_theta(
            p2, float(p) * w, tail_tol
        )
        return float(cond_p * e_p + cond_y * e_y) + thetas + 8 * EPS


SNH_MODULI = [0.01, 0.1, 0.5, 0.9, 0.99]
# u as a fraction of K(k'): snh has its pole at u = K(k')
SNH_FRACTIONS = [-0.8, -0.3, 0.05, 0.4, 0.8]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("frac", SNH_FRACTIONS)
@pytest.mark.parametrize("k", SNH_MODULI)
def test_jacobi_snh_within_claim(k, frac, tail_tol):
    u = frac * complete_K(math.sqrt(1.0 - k * k))
    val = jacobi_snh(u, k, TruncationPolicy(MAX_TERMS, tail_tol))
    with mp.workdps(40):
        ref = complex(-1j * mp.ellipfun("sn", 1j * mp.mpf(u), m=mp.mpf(k) ** 2))
    assert abs(val - ref) / abs(ref) <= claimed_error_snh(u, k, tail_tol)
