"""Tests for q-Pochhammer products, theta functions and their derivatives.

Expected values marked as frozen were computed with the brute-force oracles
defined at the top of this file (plain long products / partial sums,
independent of the library's truncation logic).
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellex import qseries
from ellex.elliptic import snh_core
from ellex.errors import (
    DomainError,
    EllexError,
    NearSingularity,
    NonConvergentBase,
    TruncationExceeded,
)
from ellex.qseries import (
    TruncationPolicy,
    _theta_quotient,
    log_deriv_theta,
    near_theta_zero,
    point_scope,
    qpochhammer,
    theta,
    theta_shift_factor,
)
from ellex.rmatrix import kappa_inv

# --- independent oracles -----------------------------------------------------


def qp1_brute(x, b, terms=800):
    r = 1.0 + 0j
    t = 1.0 + 0j
    for _ in range(terms):
        r *= 1 - x * t
        t *= b
    return r


def theta_brute(a, x, terms=800):
    return qp1_brute(x, a, terms) * qp1_brute(a / x, a, terms) * qp1_brute(a, a, terms)


def product_stepwise(x, b, policy):
    """(x; b)_inf by the per-factor loop the counted product replaced: one
    pow and one stop test per factor, and a return at the first partial
    product that is exactly zero.  A product that overflows is refused.  The
    counted loop must equal it bit for bit."""
    big = abs(b)
    headroom = (1.0 + abs(x)) / (1.0 - big)
    power = result = 1.0 + 0j
    for degree in range(policy.max_terms + 1):
        if headroom * big**degree < policy.tail_tol:
            if not cmath.isfinite(result):
                raise DomainError("reference product overflowed")
            return result
        result *= 1.0 - x * power
        if result == 0:
            return result
        power *= b
    raise TruncationExceeded("reference loop ran out of factors")


def theta_stepwise(a, x, policy):
    a, x = complex(a), complex(x)
    return (
        product_stepwise(x, a, policy)
        * product_stepwise(a / x, a, policy)
        * product_stepwise(a, a, policy)
    )


def outcome(f, *args):
    """repr of the value f returns (it tells -0.0 from 0.0), or the type of
    the error it raises."""
    try:
        return repr(f(*args))
    except EllexError as exc:
        return type(exc)


complex_units = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


# --- qpochhammer -------------------------------------------------------------


def test_qpochhammer_trivial_points():
    assert qpochhammer(0.0, 0.5) == 1.0
    assert qpochhammer(1.0, 0.5) == 0.0


def test_qpochhammer_matches_long_product():
    # frozen from qp1_brute(0.5, 0.3)
    assert qpochhammer(0.5, 0.3) == pytest.approx(0.3980822043018776, abs=1e-13)


def test_qpochhammer_complex_vs_brute():
    x, b = 0.4 + 0.3j, 0.5j
    assert abs(qpochhammer(x, b) - qp1_brute(x, b)) < 1e-13


def test_qpochhammer_truncation_is_certified():
    # tightening the tolerance moves the result by less than the looser one
    x, b = 1.7 + 0.4j, 0.88
    loose = qpochhammer(x, b, TruncationPolicy(2048, 1e-8))
    tight = qpochhammer(x, b, TruncationPolicy(2048, 1e-9))
    assert abs(loose - tight) < 1e-8 * max(1.0, abs(tight))


def test_qpochhammer_rejects_bad_bases():
    with pytest.raises(NonConvergentBase):
        qpochhammer(0.5, 1.0)
    with pytest.raises(NonConvergentBase):
        qpochhammer(0.5, 1.2)
    with pytest.raises(DomainError):
        qpochhammer(float("nan"), 0.5)


def test_qpochhammer_truncation_exceeded():
    with pytest.raises(TruncationExceeded):
        qpochhammer(0.5, 0.9, TruncationPolicy(max_terms=10, tail_tol=1e-15))


# moduli log-spaced over [1e-3, 0.928], each at four phases; |x| over [1e-3, 1e3]
REF_BASES = [
    m * cmath.exp(1j * phase)
    for m in (1e-3, 0.01, 0.07, 0.2, 0.41, 0.6, 0.77, 0.87, 0.928)
    for phase in (0.0, 0.9, 2.3, math.pi)
]
REF_ARGS = [
    m * cmath.exp(1j * phase)
    for m in (1e-3, 0.02, 0.3, 0.95, 1.0, 3.7, 60.0, 1e3)
    for phase in (0.0, -1.4, 2.8)
]


@pytest.mark.parametrize("tail_tol", [1e-15, 1e-10, 1e-6])
@pytest.mark.parametrize("max_terms", [8, 60, 512])
def test_counted_products_equal_stepwise_loop(max_terms, tail_tol):
    # same value bit for bit, and TruncationExceeded exactly where the
    # per-factor loop raises it
    policy = TruncationPolicy(max_terms, tail_tol)
    raised = 0
    for b in REF_BASES:
        for x in REF_ARGS:
            want = outcome(product_stepwise, x, b, policy)
            assert outcome(qpochhammer, x, b, policy) == want, (x, b)
            want = outcome(theta_stepwise, b, x, policy)
            assert outcome(theta, b, x, policy) == want, (b, x)
            raised += want is TruncationExceeded
    assert raised > 0 or max_terms == 512


@pytest.mark.parametrize("tail_tol", [1e-15, 1e-10, 1e-6])
def test_counted_products_equal_stepwise_loop_at_the_stop_boundary(tail_tol):
    # |x| puts (1 + |x|) |b|^n / (1 - |b|) within a few ulps of tail_tol, where
    # the logarithmic estimate of the factor count can be one off either way
    policy = TruncationPolicy(512, tail_tol)
    for mag in (0.013, 0.11, 0.34, 0.52, 0.66, 0.81, 0.9):
        b = mag * cmath.exp(0.6j)
        for n in range(1, 200, 7):
            if mag**n < 1e-280:
                break
            xmag = tail_tol * (1.0 - mag) / mag**n - 1.0
            if xmag <= 0.0:
                continue
            for ulps in range(-3, 4):
                x = xmag * (1.0 + ulps * 2.0**-52) * cmath.exp(-2.1j)
                want = outcome(product_stepwise, x, b, policy)
                assert outcome(qpochhammer, x, b, policy) == want, (x, b)


def test_theta_overflowing_reflection_raises_truncation():
    # a/x overflows to inf, so no factor count reaches the tail bound
    assert outcome(theta_stepwise, 0.5, 1e-320, TruncationPolicy()) is TruncationExceeded
    with pytest.raises(TruncationExceeded):
        theta(0.5, 1e-320)


@pytest.mark.parametrize("max_terms", [8, 512])
@pytest.mark.parametrize("x, b", [(4.0, 0.5), (16.0, 0.5j), (-2j, 0.5 + 0.5j)])
def test_exact_zero_factor_returns_the_first_zero_partial(x, b, max_terms):
    # x b^k == 1 exactly at k = 2 or 4, while the stop rule would keep dozens
    # of factors; the product is the stepwise loop's first zero partial
    # product, signs of its zero parts included
    policy = TruncationPolicy(max_terms)
    assert qpochhammer(x, b, policy) == 0
    want = outcome(product_stepwise, complex(x), complex(b), policy)
    assert outcome(qpochhammer, x, b, policy) == want


def test_exact_zero_factor_at_the_cap():
    # factor 2 is the last one max_terms=2 lets in; max_terms=1 stops before it
    assert qpochhammer(4.0, 0.5, TruncationPolicy(max_terms=2)) == 0
    with pytest.raises(TruncationExceeded):
        qpochhammer(4.0, 0.5, TruncationPolicy(max_terms=1))


# --- theta -------------------------------------------------------------------


def test_theta_zero_at_one():
    assert theta(0.5, 1.0) == 0.0


def test_theta_quasiperiodicity_paper_identity():
    a, x = 0.3, 0.7 + 0.2j
    resid = theta(a, a * x) + theta(a, x) / x
    assert abs(resid) < 1e-12 * abs(theta(a, x))


def test_theta_frozen_value():
    # frozen from theta_brute(0.4, 2.0)
    assert theta(0.4, 2.0) == pytest.approx(-0.03425676471672835, abs=1e-13)
    assert abs(theta(0.3, 0.7 + 0.2j) - theta_brute(0.3, 0.7 + 0.2j)) < 1e-13


def test_theta_domain_errors():
    with pytest.raises(DomainError):
        theta(0.5, 0.0)
    with pytest.raises(DomainError):
        theta(1.1, 2.0)


@given(
    a=st.complex_numbers(min_magnitude=0.05, max_magnitude=0.8, allow_nan=False),
    x=complex_units,
)
@settings(max_examples=40, deadline=None)
def test_theta_inversion_property(a, x):
    if near_theta_zero(a, x, 1e-4):
        return
    lhs = theta(a, 1.0 / x)
    rhs = -theta(a, x) / x
    assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)


# --- guarded theta quotient --------------------------------------------------


def theta_quotient_public(a, num_args, den_args, scale):
    num = den = 1.0 + 0j
    for u in num_args:
        num *= theta(a, u)
    for v in den_args:
        den *= theta(a, v)
    return num / (scale * den)


@given(
    amag=st.floats(0.02, 0.9),
    aphase=st.floats(-3.2, 3.2),
    num_args=st.lists(complex_units, min_size=1, max_size=4),
    den_args=st.lists(complex_units, min_size=1, max_size=4),
    scale=complex_units,
)
@settings(max_examples=150, deadline=None)
def test_theta_quotient_equals_public_thetas(amag, aphase, num_args, den_args, scale):
    a = amag * cmath.exp(1j * aphase)
    if any(near_theta_zero(a, v) for v in den_args):
        return
    num_args, den_args = tuple(num_args), tuple(den_args)
    got = _theta_quotient(a, num_args, den_args, TruncationPolicy(), scale)
    assert got == theta_quotient_public(a, num_args, den_args, scale)


@pytest.mark.parametrize(
    "a, num_args, den_args, error",
    [
        (1.0, (0.7,), (1.3,), DomainError),
        (1.2 + 0.3j, (0.7,), (1.3,), DomainError),
        (0.0, (0.7,), (1.3,), DomainError),
        (0.4j, (0.7, 0.0), (1.3,), DomainError),
        (0.4j, (complex("nan"),), (1.3,), DomainError),
        (0.4j, (0.7, float("inf")), (1.3,), DomainError),
        (0.4j, (0.7,), (1.3, (0.4j) ** 2 * (1 + 1e-10)), NearSingularity),
        (0.4j, (0.7,), ((0.4j) ** -1,), NearSingularity),
        # (a; a) needs more than 512 factors at |a| = 0.95
        (0.95, (0.0, 0.7), (1.3,), DomainError),
        (0.95, (0.7,), (0.0,), TruncationExceeded),
    ],
)
def test_theta_quotient_errors_match_public_theta(a, num_args, den_args, error):
    with pytest.raises(error):
        _theta_quotient(a, num_args, den_args, TruncationPolicy())


def theta_quotient_checked_thrice(a, num_args, den_args, policy, scale=1.0):
    """_theta_quotient as it was before it checked each argument once: each
    denominator argument is checked three times and the base once per
    denominator argument.  Its errors are the reference for type, message
    and order."""
    for arg in den_args:
        if near_theta_zero(a, qseries._as_complex(arg, "theta argument")):
            raise NearSingularity(f"theta_a denominator zero near {arg!r}, a = {a!r}")
    av = qseries._in_disk(a, "a")
    qseries._nonzero((num_args + den_args)[0], "theta argument")
    aa = qseries._product(av, av, policy)
    num = den = 1.0 + 0j
    for arg in num_args:
        num *= qseries._theta_pair(av, qseries._nonzero(arg, "theta argument"), policy) * aa
    for arg in den_args:
        den *= qseries._theta_pair(av, qseries._nonzero(arg, "theta argument"), policy) * aa
    return num / (scale * den)


def outcome_and_message(f, *args):
    try:
        return repr(f(*args))
    except EllexError as exc:
        return type(exc), str(exc)


def test_theta_quotient_checks_once_and_raises_as_before():
    # bases and arguments that break each check, alone and together, in
    # every position; max_terms 8 adds TruncationExceeded between them
    rng = random.Random(11)
    nan, inf = float("nan"), float("inf")
    bases = [0.4j, -0.3 + 0.2j, 0.95, 1.0, 1.2 + 0.3j, 0.0, complex(nan, 0.0), inf]
    special = [0.0, nan, complex(0.5, inf), 0.4j**2 * (1 + 1e-10), (0.4j) ** -1]

    def pick():
        if rng.random() < 0.3:
            return rng.choice(special)
        return cmath.rect(math.exp(rng.uniform(-1, 1)), rng.uniform(-3, 3))

    compared = set()
    for _ in range(3000):
        a = rng.choice(bases)
        num_args = tuple(pick() for _ in range(rng.randint(0, 3)))
        den_args = tuple(pick() for _ in range(rng.randint(1 if not num_args else 0, 3)))
        policy = rng.choice((TruncationPolicy(), TruncationPolicy(8)))
        want = outcome_and_message(theta_quotient_checked_thrice, a, num_args, den_args, policy)
        assert outcome_and_message(_theta_quotient, a, num_args, den_args, policy) == want
        compared.add(want[0] if isinstance(want, tuple) else str)
    assert compared == {str, DomainError, NonConvergentBase, NearSingularity, TruncationExceeded}


# --- point-scoped memo -------------------------------------------------------

# same arguments under three policies: a memo key without the policy hands a
# later call the first one's value or error
MEMO_POLICIES = (TruncationPolicy(), TruncationPolicy(512, 1e-6), TruncationPolicy(8))


def memo_calls(seed, draws):
    """Calls that share bases and arguments: real and complex bases, complex
    arguments next to real and imaginary ones whose zero part has either
    sign, each argument in several calls and under every policy."""
    rng = random.Random(seed)
    calls = []
    for i in range(draws):
        mag = rng.uniform(0.05, 0.9)
        if i % 2:
            base = cmath.rect(mag, rng.uniform(-math.pi, math.pi))
        else:
            base = complex(mag if i % 4 else -mag, -0.0 if i % 3 else 0.0)
        r = math.exp(rng.uniform(-1.2, 1.2))
        u = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        pool = [u, complex(r, 0.0), complex(r, -0.0), complex(0.0, -r), complex(-0.0, -r)]
        q = rng.uniform(0.3, 0.8)
        for policy in MEMO_POLICIES:
            for arg in pool:
                calls.append((theta, (base, arg, policy)))
                calls.append((snh_core, (arg, base, policy)))
                calls.append((kappa_inv, (arg, base, q, policy)))
            calls.append((_theta_quotient, (base, (pool[1], u), (pool[2], u), policy, u)))
            calls.append((_theta_quotient, (base, (pool[3],), (pool[4], pool[1]), policy)))
    return calls


def test_point_scope_changes_no_value():
    calls = memo_calls(2024, 16)
    outside = [outcome(fn, *args) for fn, args in calls]
    assert sum(isinstance(o, str) for o in outside) > len(outside) // 2
    with point_scope():
        inside = [outcome(fn, *args) for fn, args in calls + calls]
    assert inside == outside + outside
    assert qseries._MEMO.get() is None


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: theta(0.5, 1.1, TruncationPolicy(8)), TruncationExceeded),
        (lambda: kappa_inv(1.21, 0.5, 0.9, TruncationPolicy(8)), TruncationExceeded),
        (lambda: _theta_quotient(0.4j, (0.7,), ((0.4j) ** -1,), TruncationPolicy()),
         NearSingularity),
        (lambda: snh_core(0.5**0.5, 0.5), NearSingularity),
    ],
)
def test_point_scope_raises_again_on_a_repeated_call(monkeypatch, call, error):
    # a call that raises stores nothing: the repeat raises after the same work
    factor_count = qseries._factor_count
    counts = []

    def counting(*args):
        counts[-1] += 1
        return factor_count(*args)

    monkeypatch.setattr(qseries, "_factor_count", counting)
    with point_scope():
        for _ in range(2):
            counts.append(0)
            with pytest.raises(error):
                call()
    assert counts[0] == counts[1]


# --- shift factor ------------------------------------------------------------


def test_shift_factor_s_zero_is_one():
    assert theta_shift_factor(0.3, 0, 0.7) == 1.0


def test_shift_factor_s_one_matches_ratio():
    a, x = 0.3, 0.7
    ratio = theta(a, a * x) / theta(a, x)
    assert abs(ratio - theta_shift_factor(a, 1, x)) < 1e-12
    assert theta_shift_factor(a, 1, x) == pytest.approx(-1.0 / x)


def test_shift_factor_negative_s():
    a, x = 0.25, 1.3
    ratio = theta(a, x / a**2) / theta(a, x)
    assert abs(ratio - theta_shift_factor(a, -2, x)) < 1e-11 * abs(ratio)


@pytest.mark.parametrize("s", [-3, -2, -1, 0, 1, 2, 3])
def test_shift_factor_all_orders(s):
    a, x = 0.35 + 0.1j, 0.9 - 0.4j
    lhs = theta(a, a**s * x)
    rhs = theta_shift_factor(a, s, x) * theta(a, x)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-30)


# --- logarithmic derivative --------------------------------------------------


def test_log_deriv_inversion_sum():
    # theta_a(1/x) = -theta_a(x)/x implies L(x) + L(1/x) = 1 for L = x d/dx log theta_a
    a, x = 0.5, 1.7 + 0.3j
    total = log_deriv_theta(a, x) + log_deriv_theta(a, 1.0 / x)
    assert abs(total - 1.0) < 1e-11


def test_log_deriv_matches_finite_difference():
    a, x = 0.3, 1.7
    h = 1e-6
    fd = x * (cmath.log(theta(a, x + h)) - cmath.log(theta(a, x - h))) / (2 * h)
    assert abs(log_deriv_theta(a, x) - fd) < 1e-7


def test_log_deriv_self_reciprocal_point():
    # at x = -1 the inversion sum collapses to 2 L(-1) = 1
    val = log_deriv_theta(0.4, -1.0)
    assert val == pytest.approx(0.5, abs=1e-13)


def test_log_deriv_near_zero_raises():
    a = 0.5
    with pytest.raises(NearSingularity):
        log_deriv_theta(a, a**2 * (1 + 1e-10))


def test_near_theta_zero_detects_zero_set():
    a = 0.5
    assert near_theta_zero(a, a**3)
    assert near_theta_zero(a, a ** (-2) * (1 + 1e-9))
    assert not near_theta_zero(a, 0.7)


def _near_zero_brute(a, x, rtol):
    log_x, log_a = cmath.log(x), cmath.log(a)
    return any(abs(cmath.exp(log_x - n * log_a) - 1.0) < rtol for n in range(-200, 201))


@given(
    amag=st.floats(0.05, 0.95),
    aphase=st.floats(-3.2, 3.2),
    n0=st.integers(-20, 20),
    rtol=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9]),
    near_edge=st.booleans(),
    log_dist=st.floats(-13.0, -0.3),
    edge_offset=st.floats(-0.1, 0.1),
    dphase=st.floats(-0.6, 0.6),
    inward=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_near_theta_zero_equals_brute_force_scan(
    amag, aphase, n0, rtol, near_edge, log_dist, edge_offset, dphase, inward
):
    # x at relative distance d from the zero a^n0: either anywhere in
    # [1e-13, 0.5], or within 26% of rtol in a nearly radial direction, where
    # |x a^-n0| crosses the window edge 1 - rtol (inward) or 1 + rtol
    a = amag * cmath.exp(1j * aphase)
    d = rtol * 10.0**edge_offset if near_edge else 10.0**log_dist
    x = a**n0 * (1.0 + d * cmath.exp(1j * (dphase + (math.pi if inward else 0.0))))
    assert near_theta_zero(a, x, rtol) == _near_zero_brute(a, x, rtol)


@pytest.mark.parametrize("amag", [0.05, 0.9])
@pytest.mark.parametrize("rtol", [1e-10, 1e-8, 1e-4, 1e-3])
def test_near_theta_zero_tries_at_most_one_n(monkeypatch, amag, rtol):
    a = amag * cmath.exp(0.7j)
    halfway = abs(a) ** 0.5  # between two zero circles
    points = [a**n * (1.0 + d) for n in (-3, 0, 2, 7) for d in (0.0, 0.5 * rtol, 2 * rtol)]
    points += [halfway * a**n * cmath.exp(0.3j) for n in (-2, 0, 4)]
    exp_calls = []
    real_exp = cmath.exp

    def counting_exp(z):
        exp_calls.append(z)
        return real_exp(z)

    monkeypatch.setattr(cmath, "exp", counting_exp)
    for x in points:
        exp_calls.clear()
        near_theta_zero(a, x, rtol)
        assert len(exp_calls) <= 1


@pytest.mark.parametrize("rtol", [0.0, -1e-3, 1.0, 2.0])
def test_near_theta_zero_rejects_rtol_outside_unit_interval(rtol):
    with pytest.raises(DomainError):
        near_theta_zero(0.5, 1.1, rtol)
