"""Tests for q-Pochhammer products, theta functions and their derivatives.

Expected values marked as frozen were computed with the brute-force oracles
defined at the top of this file (plain long products / partial sums,
independent of the library's truncation logic).
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellex.errors import (
    DomainError,
    NearSingularity,
    NonConvergentBase,
    TruncationExceeded,
)
from ellex.qseries import (
    TruncationPolicy,
    log_deriv_theta,
    near_theta_zero,
    qpochhammer,
    theta,
    theta_shift_factor,
)

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
