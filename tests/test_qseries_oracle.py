"""q-Pochhammer products, theta, tau_fn, kappa_inv, log_deriv_theta,
poisson_series_g, poisson_structure_center, exchange_F, exchange_Y, mu_inv,
complete_K and jacobi_snh against the raised-precision references of
``mp_oracle``.

Products are compared with mpmath's ``qp``, which sums the q-binomial series
rather than multiplying factors, and kappa_inv's double-base products with
``qp`` nested over rows of the larger base and a log series for the rest.
Every theta, and so every theta quotient (tau, the F and Y steps, mu and
snh), comes from the Jacobi triple-product series at 30 digits plus the
digits its terms cancel; the log-derivative is a ratio of two of its sums,
and g and the central bracket are sums of log-derivatives in the base q^4.
tau, the central bracket, the exchange steps and mu's quotient are formed at
the arguments the library forms in doubles, so each claim is the theta or
log-derivative claims plus the roundings that combine them.  K and snh are
compared with mpmath's ``ellipk`` and ``ellipfun``.  Each comparison asserts
the error the library claims: ``tail_tol`` plus a first-order roundoff
budget, not a fixed constant.
"""

import cmath
import math
from functools import lru_cache

import pytest

from ellex import qseries
from ellex.elliptic import EllipticParams, NomeParams, complete_K, jacobi_snh
from ellex.errors import DomainError, TruncationExceeded
from ellex.exchange import LevelParams, exchange_F, exchange_Y
from ellex.poisson import poisson_series_g, poisson_structure_center
from ellex.qseries import TruncationPolicy, log_deriv_theta, qpochhammer, theta
from ellex.rmatrix import kappa_inv, mu_inv, tau_fn

mpmath = pytest.importorskip("mpmath")
import mp_oracle  # noqa: E402  (after the skip: it imports mpmath)

mp = mpmath.mp

EPS = 2.0**-53  # unit roundoff of a double
MUL = 5**0.5  # roundings, in units of EPS, of a complex multiplication
DIV = 5.0  # of a complex division
MAX_TERMS = 512


def cis(r, phi):
    return r * cmath.exp(1j * phi)


X_POINTS = [0.4 + 0.3j, cis(1.4, 2.7)]


# --- one base and theta --------------------------------------------------------


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
    the first product for m <= 0 and of the second for m >= 1.  From
    qseries._CROSSOVER on, the dual nome's claim."""
    if abs(a) >= qseries._CROSSOVER:
        return claimed_error_dual(a, x, tail_tol)
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
    ref = mp_oracle.qpochhammer(x, b)
    assert abs(val - ref) / abs(ref) <= claimed_error_one_base(x, b, tail_tol)


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("a,x", [(a, x) for a in ONE_BASES for x in _theta_points(a)])
def test_theta_within_claim(a, x, tail_tol):
    val = theta(a, x, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = complex(mp_oracle.theta(a, x))
    assert abs(val - ref) / abs(ref) <= claimed_error_theta(a, x, tail_tol)



# --- the dual nome, from qseries._CROSSOVER on -----------------------------------


def claimed_error_dual(a, x, tail_tol):
    """Relative error the dual nome claims: the dropped factors of its
    products at b, and the logarithm of x, which errs by about EPS and which
    the Gaussian and the dual argument amplify by (|log|x|| + pi) / |log|a||,
    all times the point's condition; 16 roundings besides."""
    cond = max(1.0, 1.0 / mp_oracle.zero_distance(a, x))
    spread = (abs(math.log(abs(x))) + math.pi) / abs(math.log(abs(a)))
    return 4 * tail_tol + cond * (16 + spread) * EPS


def _dual_bases():
    """Moduli from the crossover to 0.99, at phases that include pi +- 0.05."""
    low = qseries._CROSSOVER
    moduli = [low, low + 0.3 * (0.99 - low), 0.93, 0.97, 0.99]
    phases = [0.0, 1.1, math.pi - 0.05, -2.3, -(math.pi - 0.05)]
    return [cis(m, phi) for m, phi in zip(moduli, phases)] + [cis(0.99, math.pi - 0.05), 0.95]


DUAL_X = [0.1, 10.0, cis(0.4, 2.2), cis(3.0, -0.5), cis(1.4, 2.7), cis(0.15, -1.9)]
DUAL_NEAR_ZERO = [(-1, 1e-7, 0.3), (0, 1e-6, 1.1), (1, 1e-5, 2.0), (2, 1e-4, -1.2)]


def _dual_points(a):
    """Generic points with |x| in [0.1, 10], and points at relative 1e-7 to
    1e-4 from a zero a^n."""
    return DUAL_X + [a**n * (1 + cis(d, phi)) for n, d, phi in DUAL_NEAR_ZERO]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("a,x", [(a, x) for a in _dual_bases() for x in _dual_points(a)])
def test_dual_theta_within_claim(a, x, tail_tol):
    val = theta(a, x, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = complex(mp_oracle.theta(a, x))
    assert abs(val - ref) / abs(ref) <= claimed_error_dual(a, x, tail_tol)


# moduli up to just under the dual's limit, |log|a|| = qseries._DUAL_LEAST_LOG,
# where theta_a(x) is below the double range for these x and its parts are
# not; at 0.9996 the oracle sums 5400 digits, so a and x are real there (a
# phase of pi takes a second dual nome, as pi - 0.05 does, whose theta at
# -0.9996 is below the double range too)
TOP_POINTS = [(a, x) for a in (0.995, cis(0.995, math.pi - 0.05))
              for x in (1.1, cis(3.0, -0.5), cis(0.7, 2.0))]
TOP_POINTS += [(0.9996, 1.1), (-0.9996, 0.7)]


@pytest.mark.parametrize("a,x", TOP_POINTS)
def test_dual_parts_within_claim_up_to_the_limit(a, x):
    base = qseries._base(a, TruncationPolicy())
    assert base.dual_side
    mantissa, gr, gi = qseries._dual_parts(complex(x), base)  # the exponent in fixed point
    ref = mp_oracle.theta(a, x)
    with mp.workdps(30):
        val = mp.mpc(mantissa) * mp.exp(mp.mpc(mp.ldexp(gr, -qseries._FIX), mp.ldexp(gi, -qseries._FIX)))
        err = abs(val - ref) / abs(ref)
    assert err <= claimed_error_dual(a, x, 1e-15)


def test_the_dual_side_ends_where_its_bound_passes_1e_12():
    # above |a| = e^-_DUAL_LEAST_LOG the product takes theta again, under
    # max_terms: 512 factors are far too few there
    for scale, dual in ((1.01, True), (0.99, False)):
        a = math.exp(-qseries._DUAL_LEAST_LOG * scale)
        assert qseries._base(a, TruncationPolicy()).dual_side is dual
    assert math.pi / qseries._DUAL_LEAST_LOG * EPS == pytest.approx(1e-12)
    with pytest.raises(TruncationExceeded):
        theta(math.exp(-qseries._DUAL_LEAST_LOG * 0.99), 1.1)



@pytest.mark.parametrize(
    "mantissa, hi", [(1e5 + 0j, complex(-710.0, 0.3)), (3e-6 + 1e-6j, complex(712.5, -2.0))]
)
def test_dual_parts_exponentiate_in_the_normal_range(mantissa, hi):
    # e^hi alone leaves the normal double range, mantissa e^hi does not; the
    # fold of |mantissa| into the exponent rounds its log once.  The exponent
    # goes in as fixed-point ints, exact for these hi
    scale = 2.0**qseries._FIX
    value, problem = qseries._exp_parts(mantissa, int(hi.real * scale), int(hi.imag * scale))
    bound = (4 + abs(math.log(abs(mantissa)))) * EPS
    with mp.workdps(30):
        ref = mp.mpc(mantissa) * mp.exp(mp.mpc(hi))
        assert problem == "" and abs(mp.mpc(value) - ref) <= bound * abs(ref)


# |q^4| from the crossover to 0.92, where the product still forms every theta
DUAL_Q = [cis(qseries._CROSSOVER ** 0.25, 0.3), cis(0.95, -1.7), cis(0.975, 0.6),
          -(0.92**0.25)]
DUAL_P = 0.2 * cmath.exp(0.4j)
# relative error allowed between the two paths: a few hundred roundings of
# the product at |a| near 0.92, over the eight thetas of an F or Y step
PATHS_REL = 2e-13


def _by_the_product(monkeypatch, f, *args):
    """f(*args) with every theta formed by the product, the oracle path."""
    with monkeypatch.context() as patched:
        patched.setattr(qseries, "_CROSSOVER", 1.0)
        return f(*args)


@pytest.mark.parametrize("q", DUAL_Q)
def test_dual_quotients_match_the_product_path(monkeypatch, q):
    policy = TruncationPolicy(4096)  # a cap the product's longest factors meet
    calls = [(tau_fn, (x, q, policy)) for x in GENERIC_X]
    for m in (-2, 1, 3):
        level = LevelParams(m, NomeParams(DUAL_P, q))
        for x in (cis(0.9, 0.4), cis(1.2, -2.0)):
            calls += [(exchange_F, (level, x, policy)), (exchange_Y, (level, x, policy))]
    compared = 0
    for f, args in calls:
        try:
            want = _by_the_product(monkeypatch, f, *args)
        except DomainError:  # a running product of thetas left the double range
            continue
        got = f(*args)
        assert abs(got - want) <= PATHS_REL * abs(want), (f.__name__, args)
        compared += 1
    assert compared >= len(calls) - 4


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
    ref = mp_oracle.kappa_inv(y, p, q)
    assert abs(val - ref) / abs(ref) <= claimed_error_kappa(y, p, q, tail_tol)


# --- log_deriv_theta and poisson_series_g ----------------------------------------


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
    ref = mp_oracle.log_deriv_theta(a, x)
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
    ref = mp_oracle.series_g(x, q)
    assert abs(val - ref) <= claimed_error_series_g(x, q, tail_tol)


# --- tau_fn and poisson_structure_center ----------------------------------------

QUOTIENT_Q = [cis(0.3, 0.7), cis(0.6, -2.0), -0.6, cis(0.9, 2.4)]  # |q^4| to 0.66


def claimed_error_tau(x, q, tail_tol):
    """Relative error that tau_fn(x, q) claims: the claims of its two thetas,
    plus the product by x and the quotient that combine them."""
    a, num, den = mp_oracle.tau_args(x, q)
    return (
        claimed_error_theta(a, num, tail_tol)
        + claimed_error_theta(a, den, tail_tol)
        + (MUL + DIV) * EPS
    )


def _tau_points(q):
    """Generic points, and points whose square is near a pole x^2 = q^(1-4n),
    a zero of the denominator theta_{q^4}(q / x^2)."""
    near = [(n, d, phi) for n in (-1, 0, 1) for d, phi in NEAR_POLE]
    return GENERIC_X + [cmath.sqrt(q ** (1 - 4 * n) * (1 + cis(d, phi))) for n, d, phi in near]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("q,x", [(q, x) for q in QUOTIENT_Q for x in _tau_points(q)])
def test_tau_fn_within_claim(q, x, tail_tol):
    val = tau_fn(x, q, TruncationPolicy(MAX_TERMS, tail_tol))
    ref = mp_oracle.tau(x, q)
    assert abs(val - ref) / abs(ref) <= claimed_error_tau(x, q, tail_tol)


def claimed_error_center(x, q, tail_tol):
    """Absolute error that poisson_structure_center(x, q) claims.

    The four log-derivative claims add, and each of the three additions
    rounds at most the sum of the moduli.  The sum S is then multiplied by
    -2 ln q: the claim on S scales by |2 ln q|, and the rounded log (charged
    4 roundings) and the product add (4 + sqrt(5)) roundings of the result.
    """
    a, args = mp_oracle.center_args(x, q)
    moduli = sum(abs(mp_oracle.log_deriv_theta(a, y)) for y in args)
    sum_error = sum(claimed_error_log_deriv(a, y, tail_tol) for y in args) + 3 * moduli * EPS
    scale = abs(2 * cmath.log(q))
    return scale * sum_error + abs(mp_oracle.center(x, q)) * (4 + MUL) * EPS


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("q,x", [(q, x) for q in QUOTIENT_Q for x in _series_g_points(q)])
def test_poisson_structure_center_within_claim(q, x, tail_tol):
    val = poisson_structure_center(x, q, TruncationPolicy(MAX_TERMS, tail_tol))
    assert abs(val - mp_oracle.center(x, q)) <= claimed_error_center(x, q, tail_tol)


# --- exchange_F, exchange_Y and mu_inv: theta quotients on both paths -----------


# step s's theta_{q^4} arguments, numerator then denominator, as exponents
# (e, k, f) of x^(2e) q^(2k) p^(f s) (see exchange's docstring), over the
# steps first..last of a level m; step(quot, q, x^2) is the step's factor
F_POS_ARGS = ((1, 1, -1), (-1, 1, 1)), ((-1, 0, 1), (1, 0, -1))
F_NEG_ARGS = ((1, 0, 1), (-1, 0, -1)), ((1, 1, 1), (-1, 1, -1))
Y_ARGS = ((-1, 0, 1), (1, 1, 1)), ((1, 0, 1), (-1, 1, 1))


def _level_steps(f, m):
    """(table, first, last, step) of exchange_F or exchange_Y at level m."""
    if f is exchange_Y:
        return Y_ARGS, 1, 2 * m - 1 if m > 0 else -2 * m, lambda quot, q, x2: x2 * quot
    if m > 0:
        return F_POS_ARGS, 1, 2 * m, lambda quot, q, x2: quot / q
    return F_NEG_ARGS, 0, -2 * m - 1, lambda quot, q, x2: q * quot


def _step_args(table, s, x, p, q):
    """Step s's theta arguments as exchange forms them in doubles: the heads
    x^2, x^-2, x^2 q^2 and x^-2 q^2, times or over p^s by repeated
    multiplication."""
    x2, q2 = x * x, q * q
    heads = {(1, 0): x2, (-1, 0): 1.0 / x2}
    heads[1, 1], heads[-1, 1] = heads[1, 0] * q2, heads[-1, 0] * q2
    ps = 1.0 + 0j
    for _ in range(s):
        ps *= p
    return [[heads[e, k] * ps if f > 0 else heads[e, k] / ps for e, k, f in side]
            for side in table]


# roundings, in units of EPS, that one step adds to its four thetas' claims:
# the second theta of the numerator and of the denominator, the quotient,
# the step's product or division by q or x^2, and the running product
STEP_ROUNDINGS = 3 * MUL + 2 * DIV


def exchange_oracle_and_claim(f, m, p, q, x, tail_tol):
    """f(level m, x) at 40 digits from the oracle thetas at the arguments
    exchange forms, and the relative error it claims: its thetas' claims
    (the dual's from the crossover on) plus STEP_ROUNDINGS a step; Y is the
    square of its product, which doubles the claim and rounds once more."""
    table, first, last, step = _level_steps(f, m)
    a, x2 = q**4, x * x
    value, claim = mp.one, 0.0
    with mp.workdps(40):
        for s in range(first, last + 1):
            nums, dens = _step_args(table, s, x, p, q)
            quot = (mp_oracle.theta(a, nums[0]) * mp_oracle.theta(a, nums[1])
                    / (mp_oracle.theta(a, dens[0]) * mp_oracle.theta(a, dens[1])))
            value *= step(quot, mp.mpc(q), mp.mpc(x2))
            claim += sum(claimed_error_theta(a, arg, tail_tol) for arg in nums + dens)
            claim += STEP_ROUNDINGS * EPS
        if f is exchange_Y:
            return complex(value * value), 2 * claim + MUL * EPS
        return complex(value), claim


# |q^4| from 0.04 to 0.9, two below the crossover and two above it
EXCHANGE_Q = [cis(0.45, 0.3), cis(0.84, -2.0), cis(0.95, 0.6), cis(0.974, 1.2)]
EXCHANGE_P = 0.5 * cmath.exp(0.4j)
EXCHANGE_X = [cis(0.9, 0.4), cis(1.2, -2.0)]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("f", [exchange_F, exchange_Y])
@pytest.mark.parametrize("q,x", [(q, x) for q in EXCHANGE_Q for x in EXCHANGE_X])
def test_exchange_within_claim(q, x, f, m, tail_tol):
    val = f(LevelParams(m, NomeParams(EXCHANGE_P, q)), x, TruncationPolicy(MAX_TERMS, tail_tol))
    ref, claim = exchange_oracle_and_claim(f, m, EXCHANGE_P, q, x, tail_tol)
    assert abs(val - ref) / abs(ref) <= claim


def claimed_error_mu(x, p, q, tail_tol):
    """Relative error that mu_inv(x, p, q) claims: kappa_inv's, its three
    thetas' in the base p^2, those of (p^2; p^2) and (p; p) twice, and the
    roundings that combine them: the theta quotient's product and division,
    the square of (p; p), the constant's division and two products."""
    x2, p2, nums, d = mp_oracle.mu_args(x, p, q)
    thetas = sum(claimed_error_theta(p2, arg, tail_tol) for arg in (*nums, d))
    products = claimed_error_one_base(p2, p2, tail_tol) + 2 * claimed_error_one_base(p, p, tail_tol)
    return (claimed_error_kappa(x2, p, q, tail_tol) + thetas + products
            + (4 * MUL + 2 * DIV) * EPS)


# |p^2| from 0.25 to 0.81: the last two take the dual nome
MU_POINTS = [(1.1 + 0.2j, 0.5, -0.6), (cis(0.8, 2.0), cis(0.6, 1.0), cis(0.7, 0.4)),
             (1.1 + 0.2j, cis(0.88, 0.3), cis(0.6, -1.0)), (cis(1.3, -0.7), 0.9, 0.5j)]


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-15])
@pytest.mark.parametrize("x,p,q", MU_POINTS)
def test_mu_inv_within_claim(x, p, q, tail_tol):
    val = mu_inv(x, p, q, TruncationPolicy(MAX_TERMS, tail_tol))
    assert abs(val - mp_oracle.mu_inv(x, p, q)) / abs(val) <= claimed_error_mu(x, p, q, tail_tol)


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
    ref = mp_oracle.complete_K(k)
    with mp.workdps(40):
        assert abs(complete_K(k) - ref) / ref <= claimed_error_K(k)


@pytest.mark.parametrize("k", [1e-3, 0.01, 0.1, 0.5, 0.9, 0.99])
def test_K_prime_within_claim(k):
    ref = mp_oracle.K_prime(k)
    with mp.workdps(40):
        assert abs(EllipticParams(k, 1.0).K_prime - ref) / ref <= claimed_error_agm(k)


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
        K, Kp = mp_oracle.complete_K(k), mp_oracle.K_prime(k)
        p, y = mp.exp(-mp.pi * Kp / K), mp.exp(mp.pi * u / (2 * K))
        S = mp_oracle.snh_form(y, p)
        cond_p = abs(mp.diff(lambda t: mp_oracle.snh_form(y, t), p) * p / S)
        cond_y = abs(mp.diff(lambda t: mp_oracle.snh_form(t, p), y) * y / S)
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
    ref = mp_oracle.snh(u, k)
    assert abs(val - ref) / abs(ref) <= claimed_error_snh(u, k, tail_tol)
