"""q-Pochhammer products, theta, kappa_inv, log_deriv_theta, poisson_series_g,
complete_K and jacobi_snh against a 40-digit oracle.

Products and theta are compared with mpmath's ``qp``, which sums the
q-binomial series rather than multiplying factors.  The kappa_inv oracle
takes each double-base product (z; a, b) as ``qp`` nested over rows of the
larger base, (z; a, b) = prod_n (z a^n; b), for the rows with |z a^n| > 1/2.
The rows after them are summed exactly through

    log (w; a, b)_inf = -sum_{j >= 1} w^j / (j (1 - a^j) (1 - b^j)),  |w| <= 1/2,

so the oracle truncates nothing beyond its 40 digits.  The log-derivative
oracle is a ratio of two sums of the Jacobi triple-product series, and the
structure-function oracle g(x) = -1 + 2 L(x^2) + 2 L(q^2 / x^2) takes two such
log-derivatives in the base q^4.  K and snh are compared with mpmath's
``ellipk`` and ``ellipfun``.  Each comparison
asserts the error the library claims: ``tail_tol`` plus a first-order
roundoff budget, not a fixed constant.
"""

import cmath
import math
from functools import lru_cache

import pytest

from ellex.elliptic import EllipticParams, complete_K, jacobi_snh
from ellex.poisson import poisson_series_g
from ellex.qseries import TruncationPolicy, log_deriv_theta, qpochhammer, theta
from ellex.rmatrix import kappa_inv

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

EPS = 2.0**-53  # unit roundoff of a double
MUL = 5**0.5  # roundings, in units of EPS, of a complex multiplication
DIV = 5.0  # of a complex division
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


def cis(r, phi):
    return r * cmath.exp(1j * phi)


X_POINTS = [0.4 + 0.3j, cis(1.4, 2.7)]


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


def one_base_roundoff(x, b, tail_tol, formed=4.0):
    """Roundings, in units of EPS, that qpochhammer(x, b) can make.

    The loop keeps factor n, 1 - z with z = x b^n, while
    (1 + |x|) |b|^n / (1 - |b|) >= tail_tol.  Each kept factor costs sqrt(5)+1
    roundings for the subtraction and the multiplication into the product,
    plus (n+1)(sqrt(5)+4) + formed roundings of z (its n+1 multiplications and
    the roundings of x when the caller formed it, 4 by default), amplified by
    the factor's condition |z| / |1 - z|.  The factor nearest a zero b^-n of
    the product carries the point's condition 1 / |x b^n - 1| (to within 1),
    so near a zero the budget grows with the point's condition.
    """
    bmag = abs(b)
    t_min = tail_tol * (1 - bmag) / (1 + abs(x))
    budget, z, n = 0.0, complex(x), 0
    while bmag**n >= t_min:
        steps = (n + 1) * (5**0.5 + 4) + formed
        budget += 5**0.5 + 1 + steps * abs(z) / abs(1 - z)
        z, n = z * b, n + 1
    return budget


def claimed_error_one_base(x, b, tail_tol):
    """Relative error that qpochhammer(x, b) claims: tail_tol plus roundoff."""
    return tail_tol + one_base_roundoff(x, b, tail_tol) * EPS


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
    val = qpochhammer(x, b, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = qp1_oracle(x, b)
    assert abs(val - ref) / abs(ref) <= claimed_error_one_base(x, b, tail_tol)


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("a,x", [(a, x) for a in ONE_BASES for x in _theta_points(a)])
def test_theta_within_claim(a, x, tail_tol):
    val = theta(a, x, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = theta_oracle(a, x)
    assert abs(val - ref) / abs(ref) <= claimed_error_theta(a, x, tail_tol)


# --- kappa_inv ------------------------------------------------------------------


def claimed_error_kappa(y, p, q, tail_tol):
    """Relative error that kappa_inv(y, p, q) claims: tail_tol plus roundoff.

    The budget follows the algorithm.  Each of the R head rows z a^n is a
    one-base product at the share tail_tol / (2 (R+1)), charged by
    one_base_roundoff with n (sqrt(5)+4) more roundings of its argument for
    the multiplications by a.  A rounding in series term j,
    w^j / (j (1-a^j) (1-b^j)), is an absolute error of log(1/kappa) and so a
    relative one of 1/kappa.  The term is charged j times the roundings of
    w plus (j-1) sqrt(5) for the power, (j-1) sqrt(5) + 1 for each power of
    a base amplified by the condition |a^j| / |1 - a^j| of the difference,
    3 sqrt(5) + 2 for the products and the quotient, and J + 8 for the sums
    it passes through, J being the terms the series takes.  exp and the
    R + 2 products and quotient that combine the factors add 4 + (R+2) sqrt(5).
    """
    q2 = q * q
    q4 = q2 * q2
    a, b = (p, q4) if abs(p) >= abs(q4) else (q4, p)
    rows, tails = [], []  # (argument, roundings made in forming it)
    for z in (q4 / y, q2 * y, p / y, p * q2 * y, q4 * y, q2 / y, p * y, p * q2 / y):
        formed = 4.0
        while abs(z) > 0.5:
            rows.append((z, formed))
            z, formed = z * a, formed + 5**0.5 + 4
        tails.append((abs(z), formed))
    share = tail_tol / (2 * (len(rows) + 1))
    budget = sum(one_base_roundoff(z, b, share, formed) for z, formed in rows)
    scale = 1 / ((1 - abs(a)) * (1 - abs(b)))
    terms = 1
    while sum(w ** (terms + 1) / (1 - w) for w, _ in tails) * scale / (terms + 1) >= share:
        terms += 1
    for j in range(1, terms + 1):
        aj, bj = abs(a) ** j, abs(b) ** j
        diffs = ((j - 1) * 5**0.5 + 1) * (aj / (1 - aj) + bj / (1 - bj))
        fixed = (j - 1) * 5**0.5 + diffs + 3 * 5**0.5 + 2 + terms + 8
        for w, formed in tails:
            budget += w**j / (j * (1 - aj) * (1 - bj)) * (j * formed + fixed)
    return tail_tol + (budget + 4 + (len(rows) + 2) * 5**0.5) * EPS


KAPPA_POINTS = [
    (1.1 + 0.2j, 0.5, -0.6),
    (cis(0.7, 2.0), 0.9, cis(0.65, 0.4)),
    (cis(1.8, -1.0), 0.2, cis(0.5, 2.2)),
    (cis(150.0, 0.7), 0.5, -0.6),  # |y| >= 100
    (cis(0.005, -2.0), 0.3, cis(0.7, 1.0)),  # |y| <= 0.01
]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("y,p,q", KAPPA_POINTS)
def test_kappa_inv_within_claim(y, p, q, tail_tol):
    val = kappa_inv(y, p, q, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = kappa_inv_oracle(y, p, q)
    assert abs(val - ref) / abs(ref) <= claimed_error_kappa(y, p, q, tail_tol)


# --- log_deriv_theta and poisson_series_g ----------------------------------------


def _log_deriv_oracle(a, x):
    """x d/dx log theta_a(x) at the working precision, from the triple-product
    series theta_a(x) = sum_n (-1)^n a^(n(n-1)/2) x^n and its x-derivative,
    summed over the n within reach of the largest term."""
    la = mp.log(abs(a))
    peak = int(mp.nint(mp.mpf(0.5) - mp.log(abs(x)) / la))
    reach = int(mp.ceil(mp.sqrt(2 * (mp.dps + 10) * mp.log(10) / -la))) + 2
    series = derivative = mp.zero
    for n in range(peak - reach, peak + reach + 1):
        term = (-1) ** n * a ** (n * (n - 1) // 2) * x**n
        series += term
        derivative += n * term
    return derivative / series


@lru_cache(maxsize=None)
def log_deriv_oracle(a, x):
    with mp.workdps(40):
        return complex(_log_deriv_oracle(mp.mpc(a), mp.mpc(x)))


@lru_cache(maxsize=None)
def series_g_oracle(x, q):
    with mp.workdps(40):
        x2, q = mp.mpc(x) ** 2, mp.mpc(q)
        q4 = q**4
        g = -1 + 2 * _log_deriv_oracle(q4, x2) + 2 * _log_deriv_oracle(q4, q * q / x2)
        return complex(g)


def _ratio_roundoff(v, formed):
    """Absolute roundoff of v / (1 - v), in units of EPS, when v carries
    ``formed`` roundings and its numerator and denominator share them: they
    reach the quotient through the condition 1 / |1 - v|, and the subtraction
    and the division round once more."""
    t = abs(v) / abs(1 - v)
    return t * (formed / abs(1 - v) + 1 + DIV), t


def claimed_error_log_deriv(a, x, tail_tol):
    """Absolute error that log_deriv_theta(a, x) claims: its tail bound plus roundoff.

    The loop adds -z / (1 - z), z = x a^n, and w / (1 - w), w = a^(n+1) / x,
    and stops after n once |x a^(n+1)|, |a^(n+1) / x| < 1/2 and
    2 (|x| + 1/|x| + 1) |a|^(n+1) / (1 - |a|) < tail_tol, which bounds the
    dropped terms.  z carries (n+1) multiplications, w (n+1) and a division;
    each of the two additions per step rounds at most the sum of the moduli
    of the terms so far.
    """
    amag, xmag = abs(a), abs(x)
    scale = 2 * (xmag + 1 / xmag + 1)
    budget = moduli = 0.0
    n = 0
    while True:
        e1, t1 = _ratio_roundoff(x * a**n, (n + 1) * MUL)
        e2, t2 = _ratio_roundoff(a ** (n + 1) / x, (n + 1) * MUL + DIV)
        moduli += t1 + t2
        budget += e1 + e2 + (t1 + t2) + moduli
        n += 1
        an = amag**n
        if xmag * an < 0.5 and an / xmag < 0.5 and scale * an / (1 - amag) < tail_tol:
            return tail_tol + budget * EPS


def claimed_error_series_g(x, q, tail_tol):
    """Absolute error that poisson_series_g(x, q) claims: its tail bound plus roundoff.

    With u = x^2, v = 1/u and t = q^(4n), step n adds the four terms
    2 y / (1 - y) for y = u t, u t q^2, v t, v t q^2, and the loop stops after
    n once |u t|, |v t| < 1/2 for t = q^(4(n+1)) and
    8 (|u| + |v|) |t| / (1 - |q^4|) < tail_tol, which bounds the dropped terms.
    u carries one multiplication, v one more and a division, q^2 one, q^4
    three and t = q^(4n) 4n; u t and v t one more, u t q^2 and v t q^2 two
    more.  The four terms and the running total take four additions a step.
    """
    u = x * x
    v = 1 / u
    q2 = q * q
    q4 = q2 * q2
    mag, q4mag = abs(u) + abs(v), abs(q4)
    e_u, t_u = _ratio_roundoff(u, MUL)
    e_v, t_v = _ratio_roundoff(v, MUL + DIV)
    budget, moduli = e_u + e_v, t_u + t_v
    budget += moduli
    n = 0
    while True:
        t = q4**n
        u_t, v_t = (4 * n + 2) * MUL, (4 * n + 2) * MUL + DIV
        terms = [
            _ratio_roundoff(u * t, u_t),
            _ratio_roundoff(u * t * q2, u_t + 2 * MUL),
            _ratio_roundoff(v * t, v_t),
            _ratio_roundoff(v * t * q2, v_t + 2 * MUL),
        ]
        step = 2 * sum(mod for _, mod in terms)
        moduli += step
        budget += 2 * sum(err for err, _ in terms) + 3 * step + moduli
        n += 1
        tn = q4mag**n
        if abs(u) * tn < 0.5 and abs(v) * tn < 0.5 and 8 * mag * tn / (1 - q4mag) < tail_tol:
            return tail_tol + budget * EPS


# (relative distance to a zero or pole, phase) of the points placed near one
NEAR_POLE = [(1e-6, 0.3), (1e-6, 2.5), (1e-4, -1.2)]


def _log_deriv_points(a):
    """Generic points, and points near the zeros x = a^m of theta_a (poles of
    its log-derivative)."""
    near = [(m, d, phi) for m in (-1, 0, 2) for d, phi in NEAR_POLE]
    return GENERIC_X + [a**m * (1 + cis(d, phi)) for m, d, phi in near]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("a,x", [(a, x) for a in ONE_BASES for x in _log_deriv_points(a)])
def test_log_deriv_theta_within_claim(a, x, tail_tol):
    val = log_deriv_theta(a, x, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = log_deriv_oracle(a, x)
    assert abs(val - ref) <= claimed_error_log_deriv(a, x, tail_tol)


SERIES_Q = [0.45, cis(0.6, 1.0), -0.9, cis(0.97, 2.0)]  # |q^4| from 0.04 to 0.89


def _series_g_points(q):
    """Generic points, and points whose square is near a pole x^2 = q^(2j)."""
    near = [(j, d, phi) for j in (-1, 0, 1) for d, phi in NEAR_POLE]
    return GENERIC_X + [q**j * cmath.sqrt(1 + cis(d, phi)) for j, d, phi in near]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("q,x", [(q, x) for q in SERIES_Q for x in _series_g_points(q)])
def test_poisson_series_g_within_claim(q, x, tail_tol):
    val = poisson_series_g(x, q, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = series_g_oracle(x, q)
    assert abs(val - ref) <= claimed_error_series_g(x, q, tail_tol)


# --- elliptic layer: complete_K and jacobi_snh -----------------------------------


def agm_steps(b):
    """AGM steps from (1, b) until the iterates agree to a unit roundoff."""
    with mp.workdps(40):
        a, b, n = mp.one, mp.mpf(b), 0
        while abs(a - b) > EPS * a:
            a, b, n = (a + b) / 2, mp.sqrt(a * b), n + 1
    return n


def claimed_error_agm(b):
    """Relative error of pi / (2 AGM(1, b)) for an exact b; the AGM
    truncates nothing.  The AGM limit is homogeneous and increasing in both
    arguments, so its relative error is at most the largest relative error
    of an iterate: 3/2 roundings per step, charged 2, over the steps until
    the iterates meet and one more.  They stop within one ulp of each other
    (up to 4 roundings from the limit), and pi / (2a) costs 2 more.
    """
    return EPS * (2 * (agm_steps(b) + 1) + 6)


def claimed_error_K(k):
    """Relative error that complete_K(k) claims: the AGM from (1, k') plus
    the rounded k' = sqrt(1 - k^2), 1/(2(1 - k^2)) + 3/2 roundings."""
    return claimed_error_agm(math.sqrt(1 - k * k)) + EPS * (1 / (2 * (1 - k * k)) + 1.5)


@pytest.mark.parametrize("k", [1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
def test_complete_K_within_claim(k):
    with mp.workdps(40):
        ref = mp.ellipk(mp.mpf(k) ** 2)
        assert abs(complete_K(k) - ref) / ref <= claimed_error_K(k)


@pytest.mark.parametrize("k", [1e-3, 0.01, 0.1, 0.5, 0.9, 0.99])
def test_K_prime_within_claim(k):
    with mp.workdps(40):
        ref = mp.ellipk(1 - mp.mpf(k) ** 2)
        assert abs(EllipticParams(k, 1.0).K_prime - ref) / ref <= claimed_error_agm(k)


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
    |y dS/dy / S|.  K' = pi / (2 AGM(1, k)) takes k itself, so it carries
    only the AGM's roundings.  The two theta claims carry the tails and their
    own roundoff, and 8 roundings cover k^(-1/2), p^(1/4) and the products
    and quotient that combine the factors.
    """
    with mp.workdps(40):
        mk = mp.mpf(k)
        K, Kp = mp.ellipk(mk**2), mp.ellipk(1 - mk**2)
        p, y = mp.exp(-mp.pi * Kp / K), mp.exp(mp.pi * u / (2 * K))
        S = _snh_oracle_form(y, p)
        cond_p = abs(mp.diff(lambda t: _snh_oracle_form(y, t), p) * p / S)
        cond_y = abs(mp.diff(lambda t: _snh_oracle_form(t, p), y) * y / S)
        e_K = claimed_error_K(k)
        e_Kp = claimed_error_agm(k)
        e_p = mp.pi * Kp / K * (e_K + e_Kp + 3 * EPS) + EPS
        e_y = mp.pi * abs(u) / (2 * K) * (e_K + 3 * EPS) + EPS
        p2, w = float(p) ** 2, float(1 / (y * y))
        thetas = claimed_error_theta(p2, w, tail_tol) + claimed_error_theta(
            p2, float(p) * w, tail_tol
        )
        return float(cond_p * e_p + cond_y * e_y) + thetas + 8 * EPS


SNH_MODULI = [1e-3, 0.01, 0.1, 0.5, 0.9, 0.99]
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
