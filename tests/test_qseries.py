"""Tests for q-Pochhammer products, theta functions and their derivatives.

Expected values marked as frozen were computed with the brute-force oracles
defined at the top of this file (plain long products / partial sums,
independent of the library's truncation logic).
"""

import cmath
import contextlib
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellex import qseries, rmatrix, suites
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
    pow and one stop test per factor, and a return at the first factor that
    is exactly zero.  A product that overflows, or underflows to zero, is
    refused.  The counted loop must equal it bit for bit."""
    big = abs(b)
    headroom = (1.0 + abs(x)) / (1.0 - big)
    power = result = 1.0 + 0j
    for degree in range(policy.max_terms + 1):
        if headroom * big**degree < policy.tail_tol:
            if not cmath.isfinite(result):
                raise DomainError("reference product overflowed")
            if result == 0:
                raise DomainError("reference product underflowed")
            return result
        factor = 1.0 - x * power
        result *= factor
        if factor == 0:
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


def theta_product(a, x, policy):
    """theta by the product path at any base, after theta's checks: the path
    below qseries._CROSSOVER, and the oracle above it."""
    base = qseries._base(a, policy)
    return qseries._product_theta(qseries._nonzero(x, "x"), base)


# relative bound between a dual-nome quotient, whose exponents are summed
# before one exponential, and the product of the public thetas it divides
DUAL_QUOTIENT_REL = 1e-14


def settle(f, *args):
    """The value f returns, or the type of the EllexError it raises."""
    try:
        return f(*args)
    except EllexError as exc:
        return type(exc)


def agree(got, want, rel):
    """Both outcomes are the same EllexError subclass, or values that differ
    by at most relative rel (bit for bit, signs of zeros included, at 0)."""
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    if rel == 0.0:
        return repr(got) == repr(want)
    return abs(got - want) <= rel * abs(want)


def theta_quotient(a, num_args, den_args, policy, scale=1.0):
    """_theta_quotient at the base a, which qseries._base checks and builds
    first, as every caller of the kernel does."""
    return _theta_quotient(qseries._base(a, policy), num_args, den_args, scale)


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


def test_an_integral_float_cap_is_the_int_cap():
    # max_terms 8.0 is stored as 8: the same policy, and the same values,
    # errors and messages, where a float cap once reached the power table
    policy = TruncationPolicy(8.0)
    assert policy == TruncationPolicy(8) and type(policy.max_terms) is int
    for f, args in ((theta, (0.5, 1.1)), (qpochhammer, (0.3, 0.5)), (theta, (0.01, 0.7)),
                    (qpochhammer, (0.3, 0.01)), (log_deriv_theta, (0.001, 0.7))):
        got = outcome_and_message(f, *args, policy)
        assert got == outcome_and_message(f, *args, TruncationPolicy(8)), (f, args)
    for bad in (8.5, 0):
        with pytest.raises(DomainError, match="max_terms must be a positive integer"):
            TruncationPolicy(bad)


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
            assert outcome(theta_product, b, x, policy) == want, (b, x)
            if abs(b) < qseries._CROSSOVER:
                assert outcome(theta, b, x, policy) == want, (b, x)
            raised += want is TruncationExceeded
    assert raised > 0 or max_terms == 512


# bases near phase pi whose dual nome b is itself past the crossover, so that
# theta_b takes its own dual (|b| from 0.81 to 0.88); REF_BASES stop at
# |b| <= 0.742
INNER_DUAL_BASES = [0.95 * cmath.exp(1j * phase) for phase in (math.pi, math.pi - 0.05,
                                                                 -(math.pi - 0.05))]
INNER_DUAL_BASES.append(0.97 * cmath.exp(1j * (math.pi - 0.03)))


@pytest.mark.parametrize("scoped", [False, True])
@pytest.mark.parametrize("tail_tol", [1e-15, 1e-10, 1e-6])
@pytest.mark.parametrize("max_terms", [8, 60, 512])
def test_quotient_path_equals_theta_products(max_terms, tail_tol, scoped):
    # the cases above through _theta_quotient, each argument once in the
    # numerator and, clear of a theta zero, once in the denominator; in one
    # scope the quotients and the theta calls share memo entries.  Bit for
    # bit below the crossover; above it the quotient sums its exponents
    policy = TruncationPolicy(max_terms, tail_tol)
    calls = []
    for b in REF_BASES + INNER_DUAL_BASES:
        for x in REF_ARGS:
            calls.append((b, (x,), ()))
            if not near_theta_zero(b, x):
                calls.append((b, (), (x,)))
    with point_scope() if scoped else contextlib.nullcontext():
        for b, num_args, den_args in calls:
            got = settle(theta_quotient, b, num_args, den_args, policy)
            want = settle(theta_quotient_public, b, num_args, den_args, 1.0, policy)
            rel = DUAL_QUOTIENT_REL if abs(b) >= qseries._CROSSOVER else 0.0
            assert agree(got, want, rel), (b, num_args, den_args, got, want)


@pytest.mark.parametrize("tail_tol", [1e-15, 1e-10, 1e-6])
def test_counted_products_equal_stepwise_loop_at_the_stop_boundary(tail_tol):
    # |x| puts (1 + |x|) |b|^n / (1 - |b|) within a few ulps of tail_tol, where
    # the logarithmic estimate of the factor count can be one off either way;
    # theta's pair counts (x; b) and (b/x; b) there too
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
                for arg in (x, b / x):  # the count of (x; b), then of (b/arg; b)
                    want = outcome(theta_stepwise, b, arg, policy)
                    assert outcome(theta_product, b, arg, policy) == want, (b, arg)
                    if mag < qseries._CROSSOVER:
                        assert outcome(theta, b, arg, policy) == want, (b, arg)


def test_factor_count_corrects_its_estimate_both_ways():
    # headroom * big^n within a few ulps of tail_tol: the logarithmic estimate
    # of the count is one too high or one too low within a few draws, and the
    # corrected count is the least n of the exact predicate either way
    rng = random.Random(23)
    corrected = set()
    for _ in range(300):
        big = rng.uniform(0.05, 0.95)
        n = rng.randint(1, 400)
        if big**n < 1e-280:
            continue
        tol = 10.0 ** rng.uniform(-15, -3)
        headroom = tol / big**n * (1.0 + rng.randint(-4, 4) * 2.0**-52)
        policy = TruncationPolicy(512, tol)
        log_big = math.log(big)
        estimate = min(math.ceil((math.log(tol) - math.log(headroom)) / log_big), 513)
        count = qseries._factor_count(qseries._base(big, policy), headroom)
        least = next((k for k in range(513) if headroom * big**k < tol), 513)
        assert count == least, (headroom, big, tol)
        if count != estimate:
            corrected.add("down" if count < estimate else "up")
    assert corrected == {"down", "up"}


def least_count(headroom, big, tol, cap):
    """The least n < cap with headroom * big**n < tol, else cap: bisection
    on the predicate, which falls monotonically in n."""
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if headroom * big**mid < tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_factor_count_takes_its_estimate_only_where_it_is_the_count():
    # the estimate put at every distance from an integer, 1e-17 to 1, over
    # bases from 1e-300 to 1 - 1e-15, tails from 5e-324 to 1 - 1e-14 and caps
    # from 9 to 100001 factors: _factor_count's count is the predicate's
    # least n, and wherever the theta pair's slack test takes the estimate
    # in its place, the estimate's ceiling is that count; both sides happen
    rng = random.Random(29)
    taken = set()
    for _ in range(20000):
        big = rng.choice((10.0 ** -rng.uniform(0.01, 300), rng.uniform(0.01, 0.99),
                          1.0 - 10.0 ** -rng.uniform(1, 15)))
        tol = rng.choice((10.0 ** -rng.uniform(0.01, 323), 5e-324, 1.0 - 1e-14))
        policy = TruncationPolicy(rng.choice((8, 512, 100000)), tol)
        base = qseries._base(big, policy)
        cap = policy.max_terms + 1
        near = rng.randint(0, cap + 1) + rng.choice((-1, 1)) * 10.0 ** -rng.uniform(0, 17)
        log_headroom = math.log(tol) - near * math.log(big)
        if not 0.0 < log_headroom < 709.0:
            continue
        headroom = math.exp(log_headroom)
        count = qseries._factor_count(base, headroom)
        assert count == least_count(headroom, big, tol, cap), (headroom, big, tol, cap)
        exponent = base.log_tol - math.log(headroom)
        n = math.ceil(exponent / base.log_big)
        gap = n - exponent / base.log_big
        take = exponent > -690.0 and n < cap and base.slack < gap < 1.0 - base.slack
        assert not take or n == count, (headroom, big, tol, cap)
        taken.add(take)
    assert taken == {True, False}


def test_theta_overflowing_reflection_raises_truncation():
    # a/x overflows to inf, so no factor count reaches the tail bound
    assert outcome(theta_stepwise, 0.5, 1e-320, TruncationPolicy()) is TruncationExceeded
    with pytest.raises(TruncationExceeded):
        theta(0.5, 1e-320)


@pytest.mark.parametrize("max_terms", [8, 512])
@pytest.mark.parametrize("x, b", [(4.0, 0.5), (16.0, 0.5j), (-2j, 0.5 + 0.5j)])
def test_exact_zero_factor_returns_the_first_zero_partial(x, b, max_terms):
    # x b^k == 1 exactly at k = 2 or 4, while the stop rule would keep dozens
    # of factors; the product is the stepwise loop's partial product at that
    # factor, signs of its zero parts included
    policy = TruncationPolicy(max_terms)
    assert qpochhammer(x, b, policy) == 0
    want = outcome(product_stepwise, complex(x), complex(b), policy)
    assert outcome(qpochhammer, x, b, policy) == want


def test_exact_zero_factor_at_the_cap():
    # factor 2 is the last one max_terms=2 lets in; max_terms=1 stops before it
    assert qpochhammer(4.0, 0.5, TruncationPolicy(max_terms=2)) == 0
    with pytest.raises(TruncationExceeded):
        qpochhammer(4.0, 0.5, TruncationPolicy(max_terms=1))


def pair_stepwise(a, x, policy):
    """theta's pair (x; a) (a/x; a) from two per-factor loops."""
    a, x = complex(a), complex(x)
    return product_stepwise(x, a, policy) * product_stepwise(a / x, a, policy)


# |x| from 1 up three decades, down to 1e-3 and back: a pair's longer factor
# count rises with |x| and with |a/x|, so each base's table grows, then serves
# shorter products from its head; each base's exact zero x a^k = 1 (k = 2, 4,
# 2) comes first and last
TABLE_MAGS = [10.0 ** (k / 2) for k in [*range(0, 7), *range(5, -7, -1), *range(-5, 1)]]
TABLE_ZEROS = {0.5: 4.0, 0.5j: 16.0, 0.5 + 0.5j: -2j}
TABLE_BASES = [*TABLE_ZEROS, 0.07 * cmath.exp(0.9j), -0.41, 0.87 * cmath.exp(-2.3j)]
TABLE_POLICIES = [TruncationPolicy(), TruncationPolicy(60, 1e-10), TruncationPolicy(8),
                  TruncationPolicy(3, 1e-6)]


def kind(got):
    """An outcome_and_message result as ``outcome`` reports it (the stepwise
    loops' messages are their own): the value's repr, or the error type."""
    return got if isinstance(got, str) else got[0]


@pytest.mark.parametrize("policy", TABLE_POLICIES, ids=lambda p: f"{p.max_terms}-{p.tail_tol:g}")
def test_a_shared_base_equals_the_stepwise_loop(policy):
    # every pair and product at one base reads its powers from the base's
    # table: each equals the per-factor loop by repr or error type, and the
    # same call on a fresh base by repr or error type and message, whatever
    # the table held before it
    def product(b, x, policy):
        return product_stepwise(x, b, policy)

    seen = set()
    for b in TABLE_BASES:
        base = qseries._base(b, policy)
        zero = [TABLE_ZEROS[b]] if b in TABLE_ZEROS else []
        xs = zero + [m * cmath.exp(0.7j * k) for k, m in enumerate(TABLE_MAGS)] + zero
        sizes = []
        for x in map(complex, xs):
            for kernel, reference in ((qseries._theta_pair, pair_stepwise),
                                      (qseries._product, product)):
                got = outcome_and_message(kernel, x, base)
                assert got == outcome_and_message(kernel, x, qseries._base(b, policy)), (b, x)
                assert kind(got) == outcome(reference, complex(b), x, policy), (b, x)
                seen.add(kind(got) if not isinstance(got, str) else complex(got) != 0)
            sizes.append(len(base.powers))
        got = outcome_and_message(lambda: base.aa)
        assert kind(got) == outcome(product_stepwise, complex(b), complex(b), policy), b
        # the table grew only as far as the longest count asked for, and the
        # last leg, back up from |x| = 1e-3, added nothing to it
        assert sizes == sorted(sizes) and sizes[-1] == sizes[-8] > 1, sizes
    # exact zeros under every cap, nonzero values under the roomy ones, and
    # the TruncationExceeded branch under all but the default
    assert seen - {True} == ({False} if policy.max_terms == 512 else {False, TruncationExceeded})
    assert (True in seen) == (policy.max_terms >= 60)


def slack_boundary_draws(policy, seed, draws):
    """Bases b and arguments x whose headroom (1 + |x|) / (1 - |b|) puts the
    estimate of a factor count within a few ulps of an integer n, n from
    the least count a product can have to 40 past it, so that the estimate
    lies within the base's slack; the last two are infinite headrooms, one
    from a finite x of huge modulus and one whose b/x overflows."""
    rng = random.Random(seed)
    tol = policy.tail_tol
    for _ in range(draws):
        mag = rng.uniform(0.05, 0.95)
        least = math.ceil(math.log(tol * (1.0 - mag) / 2.0) / math.log(mag))
        n = max(least, 1) + rng.randint(0, 40)
        if mag**n < 1e-307:  # keep |b|^n normal
            continue
        headroom = tol / mag**n * (1.0 + rng.randint(-4, 4) * 2.0**-52)
        xmag = headroom * (1.0 - mag) - 1.0
        if math.isfinite(xmag) and xmag > 0.0:
            yield cmath.rect(mag, rng.uniform(-3.1, 3.1)), cmath.rect(xmag, rng.uniform(-3.1, 3.1))
    yield complex(0.95), complex(1e308)
    yield complex(0.5), complex(1e-320)


@pytest.mark.parametrize("policy", [TruncationPolicy(512, 1e-15), TruncationPolicy(512, 1e-6),
                                    TruncationPolicy(60, 1e-10), TruncationPolicy(8, 1e-3),
                                    TruncationPolicy(512, 1e-300)],
                         ids=lambda p: f"{p.max_terms}-{p.tail_tol:g}")
def test_counts_at_the_slack_boundary_equal_the_stepwise_loops(policy):
    # headrooms within the slack of an integer estimate, where the pair
    # leaves the count to _factor_count, as the product always does: through
    # both kernels, with x and with b/x at the boundary, each outcome equals
    # the per-factor loop's by repr or error type, and by repr or error type
    # and message that of a base whose slack of 1 sends every count to
    # _factor_count
    def product(b, x, policy):
        return product_stepwise(x, b, policy)

    corrected, seen = set(), set()
    for b, x in slack_boundary_draws(policy, 31, 150):
        for arg in (x, b / x):
            base = qseries._base(b, policy)
            exact = qseries._base(b, policy)
            exact.slack = 1.0
            headroom = (1.0 + abs(arg)) / base.room
            if math.isfinite(headroom):
                estimate = (base.log_tol - math.log(headroom)) / base.log_big
                count = qseries._factor_count(base, headroom)
                if count != math.ceil(estimate):
                    corrected.add("down" if count < math.ceil(estimate) else "up")
            for kernel, reference in ((qseries._theta_pair, pair_stepwise),
                                      (qseries._product, product)):
                got = outcome_and_message(kernel, arg, base)
                assert got == outcome_and_message(kernel, arg, exact), (b, arg)
                assert kind(got) == outcome(reference, b, arg, policy), (b, arg)
                seen.add(kind(got) if not isinstance(got, str) else str)
    # the estimate was one off both ways, and the cap and the infinite
    # headrooms raised
    assert corrected == {"down", "up"}
    assert {str, TruncationExceeded} <= seen


def test_an_exchange_suite_counts_its_theta_pairs_without_factor_count(monkeypatch):
    # the theta pair takes its counts from the estimate wherever its slack
    # test makes it the count; f-two-path at seed 7 forms thousands of pairs
    # and leaves fewer than 1% of them to _factor_count, which also counts
    # each product _product stores.  A pair count sent to _factor_count
    # every time fails here
    puts = record_stores(monkeypatch)
    factor_count = qseries._factor_count
    counted = []

    def counting(base, headroom):
        counted.append(headroom)
        return factor_count(base, headroom)

    monkeypatch.setattr(qseries, "_factor_count", counting)
    report = suites.run_suite("f-two-path", suites.VerifyConfig())
    pairs = sum(name == "pairs" for name, _ in puts)
    fallbacks = len(counted) - sum(name == "products" for name, _ in puts)
    assert report.checks and pairs > 2500
    assert 0 <= fallbacks < 0.01 * pairs, (fallbacks, pairs)


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


def theta_quotient_public(a, num_args, den_args, scale=1.0, policy=TruncationPolicy()):
    """A one-base theta quotient from the public theta, in _theta_quotient's
    order of operations; a value that is not finite is refused."""
    num = den = 1.0 + 0j
    for u in num_args:
        num *= theta(a, u, policy)
    for v in den_args:
        den *= theta(a, v, policy)
    result = num / (scale * den)
    if not cmath.isfinite(result):
        raise DomainError("reference quotient out of floating-point range")
    return result


@given(
    amag=st.floats(0.02, 0.9),
    aphase=st.floats(-3.2, 3.2),
    num_args=st.lists(complex_units, min_size=1, max_size=4),
    den_args=st.lists(complex_units, min_size=1, max_size=4),
    scale=complex_units,
)
@settings(max_examples=150, deadline=None)
# a numerator argument beside the zero x = 1, where both sides once raised DomainError
@example(amag=0.875, aphase=0.0, num_args=[1 + 2.2e-311j], den_args=[0.5], scale=1.0 + 0j)
def test_theta_quotient_equals_public_thetas(amag, aphase, num_args, den_args, scale):
    # the same value, bit for bit below the crossover and within
    # DUAL_QUOTIENT_REL above it, or the same error
    a = amag * cmath.exp(1j * aphase)
    if any(near_theta_zero(a, v) for v in den_args):
        return
    num_args, den_args = tuple(num_args), tuple(den_args)
    got = settle(theta_quotient, a, num_args, den_args, TruncationPolicy(), scale)
    want = settle(theta_quotient_public, a, num_args, den_args, scale)
    rel = DUAL_QUOTIENT_REL if amag >= qseries._CROSSOVER else 0.0
    assert agree(got, want, rel), (got, want)


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
        # a zero argument is refused before the dual nome is formed
        (0.95, (0.0, 0.7), (1.3,), DomainError),
        (0.95, (0.7,), (0.0,), DomainError),
    ],
)
def test_theta_quotient_errors_match_public_theta(a, num_args, den_args, error):
    with pytest.raises(error):
        theta_quotient(a, num_args, den_args, TruncationPolicy())


def test_theta_quotient_at_095_needs_no_long_product():
    # (a; a) alone needs more than 512 factors at |a| = 0.95, which raised
    # TruncationExceeded; the dual nome's products there keep one factor each
    got = theta_quotient(0.95, (0.7,), (1.3,), TruncationPolicy())
    want = theta_quotient_public(0.95, (0.7,), (1.3,))
    assert agree(got, want, DUAL_QUOTIENT_REL)


def check_quotient_inputs(a, num_args, den_args):
    """The checks _theta_quotient makes before it forms any product, in its
    order: the base, then each denominator argument (finite and nonzero,
    then clear of a theta zero by the public near_theta_zero), then each
    numerator argument.  Returns the checked base."""
    av = qseries._in_disk(a, "a")
    for arg in den_args:
        if near_theta_zero(av, qseries._nonzero(arg, "theta argument")):
            raise NearSingularity(f"theta_a denominator zero near {arg!r}, a = {a!r}")
    for arg in num_args:
        qseries._nonzero(arg, "theta argument")
    return av


def theta_quotient_checked_first(a, num_args, den_args, policy, scale=1.0):
    """The reference for _theta_quotient's values and errors (type, message
    and order): every check first, then (a; a) and the pairs, or on the
    dual side the public thetas (a value within DUAL_QUOTIENT_REL)."""
    av = check_quotient_inputs(a, num_args, den_args)
    base = qseries._base(av, policy)
    if base.dual_side:
        return theta_quotient_public(av, num_args, den_args, scale, policy)
    aa = qseries._product(av, base)
    num = den = 1.0 + 0j
    for arg in num_args:
        num *= qseries._theta_pair(complex(arg), base) * aa
    for arg in den_args:
        den *= qseries._theta_pair(complex(arg), base) * aa
    return num / (scale * den)


def outcome_and_message(f, *args):
    try:
        return repr(f(*args))
    except EllexError as exc:
        return type(exc), str(exc)


def value_or_message(f, *args):
    """The value f returns, or the type and message of its EllexError."""
    try:
        return f(*args)
    except EllexError as exc:
        return type(exc), str(exc)


def quotient_draws(count):
    """Bases and arguments that break each check, alone and together, in
    every position; max_terms 8 adds TruncationExceeded between them."""
    rng = random.Random(11)
    nan, inf = float("nan"), float("inf")
    bases = [0.4j, -0.3 + 0.2j, 0.95, 1.0, 1.2 + 0.3j, 0.0, complex(nan, 0.0), inf]
    special = [0.0, nan, complex(0.5, inf), 0.4j**2 * (1 + 1e-10), (0.4j) ** -1]

    def pick():
        if rng.random() < 0.3:
            return rng.choice(special)
        return cmath.rect(math.exp(rng.uniform(-1, 1)), rng.uniform(-3, 3))

    for _ in range(count):
        a = rng.choice(bases)
        num_args = tuple(pick() for _ in range(rng.randint(0, 3)))
        den_args = tuple(pick() for _ in range(rng.randint(1 if not num_args else 0, 3)))
        policy = rng.choice((TruncationPolicy(), TruncationPolicy(8)))
        yield a, num_args, den_args, policy


def test_theta_quotient_checks_first_and_raises_as_the_reference():
    compared = set()
    for a, num_args, den_args, policy in quotient_draws(3000):
        want = value_or_message(theta_quotient_checked_first, a, num_args, den_args, policy)
        got = value_or_message(theta_quotient, a, num_args, den_args, policy)
        if isinstance(want, tuple):
            assert got == want
            compared.add(want[0])
        else:
            dual = qseries._base(a, policy).dual_side
            assert agree(got, want, DUAL_QUOTIENT_REL if dual else 0.0), (a, got, want)
            compared.add("dual value" if dual else "product value")
    assert compared == {"product value", "dual value", DomainError, NonConvergentBase,
                        NearSingularity, TruncationExceeded}


def record_kernels(monkeypatch):
    """Wrap the kernels that form products and dual-nome thetas,
    qseries._theta_pair, qseries._product (rmatrix's reference to it too)
    and qseries._dual_parts, and return the list of their calls, each as
    (kernel name, x, whether the base had its value stored before the call)."""
    calls = []
    stores = (("_theta_pair", lambda base: base.pairs),
              ("_product", lambda base: base.products),
              ("_dual_parts", lambda base: base.parts))
    for name, store in stores:
        def recording(x, base, kernel=getattr(qseries, name), name=name, store=store):
            calls.append((name, x, qseries._X_BITS(x.real, x.imag) in store(base)))
            return kernel(x, base)

        for module in (qseries, rmatrix):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    return calls


def record_stores(monkeypatch):
    """Give every base built from here on stores that record each value put
    in them, and return the list of those puts, each as (store name, key)."""
    puts = []

    class Store(dict):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def __setitem__(self, key, value):
            puts.append((self.name, key))
            super().__setitem__(key, value)

    init = qseries._Base.__init__

    def recording(self, *args):
        init(self, *args)
        self.products, self.pairs = Store("products"), Store("pairs")

    monkeypatch.setattr(qseries._Base, "__init__", recording)
    return puts


def formed(puts):
    """The products formed by the recorded puts: two per pair, one per product."""
    return sum(2 if name == "pairs" else 1 for name, _ in puts)


def test_theta_quotient_forms_no_product_before_a_check_fails(monkeypatch):
    calls = record_kernels(monkeypatch)
    rejected = 0
    for a, num_args, den_args, policy in quotient_draws(3000):
        try:
            check_quotient_inputs(a, num_args, den_args)
        except EllexError as exc:
            calls.clear()
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                theta_quotient(a, num_args, den_args, policy)
            assert calls == [], (a, num_args, den_args)
            rejected += 1
        else:
            outcome(theta_quotient, a, num_args, den_args, policy)
            assert calls, (a, num_args, den_args)  # the kernels are the ones called
    assert rejected > 1000


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
            calls.append((theta_quotient, (base, (pool[1], u), (pool[2], u), policy, u)))
            calls.append((theta_quotient, (base, (pool[3],), (pool[4], pool[1]), policy)))
    return calls


def test_point_scope_changes_no_value():
    calls = memo_calls(2024, 16)
    outside = [outcome(fn, *args) for fn, args in calls]
    assert sum(isinstance(o, str) for o in outside) > len(outside) // 2
    with point_scope():
        inside = [outcome(fn, *args) for fn, args in calls + calls]
    assert inside == outside + outside
    assert qseries._MEMO.get() is None


def test_theta_and_quotient_share_their_memo_entries(monkeypatch):
    # a quotient gets theta's base from the memo, whose (a; a) and pair at x
    # are formed, and forms the products of only its other arguments' pairs;
    # the memo holds the base alone, and the base its values by the bits of x
    puts = record_stores(monkeypatch)
    a, x, u, v = 0.3 - 0.2j, 1.1 + 0.2j, 0.7 - 0.4j, complex(1.3, -0.0)
    policy = TruncationPolicy()
    bits = [qseries._X_BITS(z.real, z.imag) for z in (a, x, u, v)]
    with point_scope():
        memo = qseries._MEMO.get()
        alone = theta(a, x)
        [base] = memo.values()
        assert (list(base.products), list(base.pairs), formed(puts)) == (bits[:1], bits[1:2], 3)
        quotient = theta_quotient(a, (u, x), (v, x), policy)
        assert list(memo.values()) == [base] and base is qseries._base(a, policy)
        assert (list(base.products), list(base.pairs), formed(puts)) == (bits[:1], bits[1:], 7)
        assert theta(a, x) == alone and formed(puts) == 7
    assert quotient == theta_quotient_public(a, (u, x), (v, x))


def test_point_scope_keeps_the_base_each_caller_gave():
    # a float base and the complex one with the same bits give the same
    # values in a scope, and each quotient's message shows a as its caller
    # gave it, as it does outside a scope (snh_core's p^2 is a float under
    # jacobi_snh)
    near = (0.4**2 * (1 + 1e-10),)
    calls = [(a, (0.7,), den) for den in ((1.3,), near) for a in (0.4, 0.4 + 0j, 0.4, 0.4 + 0j)]
    outside = [outcome_and_message(theta_quotient, *call, TruncationPolicy()) for call in calls]
    with point_scope():
        inside = [outcome_and_message(theta_quotient, *call, TruncationPolicy()) for call in calls]
    assert inside == outside
    assert [o[1].split("a = ")[-1] for o in outside[4:]] == ["0.4", "(0.4+0j)"] * 2


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: theta(0.5, 1.1, TruncationPolicy(8)), TruncationExceeded),
        (lambda: kappa_inv(1.21, 0.5, 0.9, TruncationPolicy(8)), TruncationExceeded),
        (lambda: theta_quotient(0.4j, (0.7,), ((0.4j) ** -1,), TruncationPolicy()),
         NearSingularity),
        (lambda: snh_core(0.5**0.5, 0.5), NearSingularity),
    ],
)
def test_point_scope_raises_again_on_a_repeated_call(monkeypatch, call, error):
    # a call that raises stores nothing: the repeat raises after the same
    # work, each kernel call finding in the memo what it found the first time
    calls = record_kernels(monkeypatch)
    attempts = []
    with point_scope():
        for _ in range(2):
            with pytest.raises(error):
                call()
            attempts.append(calls[:])
            calls.clear()
    assert attempts[0] == attempts[1]


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


def log_deriv_stepwise(a, x, policy):
    """log_deriv_theta by the loop that tests its stop rule after every term,
    checks and messages included.  The series with its test-free leading
    terms must equal it bit for bit, and raise where it raises."""
    av = qseries._in_disk(a, "a")
    xv = qseries._nonzero(x, "x")
    if qseries.near_theta_zero(av, xv, qseries._ZERO_RTOL):
        raise NearSingularity(f"x = {xv!r} is within {qseries._ZERO_RTOL:g} of a theta_a zero")
    qseries._as_complex(1.0 / xv, "1/x")
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


SERIES_POLICIES = [
    TruncationPolicy(max_terms, tail_tol)
    for max_terms in (1, 2, 8, 30, 512)
    for tail_tol in (0.5, 1e-6, 1e-15, 1e-300)
]


def signed_zero_variants(rng, value):
    """value as a float or as a complex whose zero part, if any, has either
    sign: the shapes a caller's real, imaginary and complex inputs take."""
    r = abs(value)
    return rng.choice(
        [
            value,
            complex(value.real, rng.choice((0.0, -0.0))),
            complex(rng.choice((0.0, -0.0)), r),
            complex(-r, rng.choice((0.0, -0.0))),
            complex(rng.choice((0.0, -0.0)), -r),
        ]
        if isinstance(value, float)
        else [value]
    )


def series_point(rng, kind):
    """One base or argument for the series references: moduli from tiny to
    near 1 (a base) or over many decades (an argument), at a random phase or
    on an axis, now and then an invalid one."""
    if rng.random() < 0.03:
        return rng.choice([0.0, -0.0, float("nan"), complex(0.5, float("inf")), 1.0, -1.3, 1e-320])
    if kind == "base":
        mag = rng.choice(
            [
                rng.random(),
                10.0 ** rng.uniform(-12.0, 0.0),
                1.0 - 10.0 ** rng.uniform(-4.0, -0.5),
                10.0 ** rng.uniform(-320.0, -60.0),
            ]
        )
    else:
        mag = rng.choice([10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-160.0, 160.0)])
    if rng.random() < 0.5:
        return signed_zero_variants(rng, float(mag))
    return mag * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def series_outcome(f, *args):
    """repr of the value, or the type and message of the error raised; an
    ArithmeticError too, which poisson_series_g still lets out at a few
    extreme points, where both loops must raise alike."""
    try:
        return repr(f(*args))
    except (EllexError, ArithmeticError) as exc:
        return type(exc), str(exc)


def test_log_deriv_equals_the_stepwise_loop():
    # bases and arguments of every shape under each policy, a tenth of the
    # arguments within relative 1e-12..1e-6 of a zero a^k of theta_a
    rng = random.Random(20)
    seen = set()
    for i in range(20000):
        a = series_point(rng, "base")
        x = series_point(rng, "argument")
        if rng.random() < 0.1 and isinstance(a, complex) and 1e-3 < abs(a) < 1.0:
            x = a ** rng.randint(-6, 6) * (1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, -6))
        policy = SERIES_POLICIES[i % len(SERIES_POLICIES)]
        want = series_outcome(log_deriv_stepwise, a, x, policy)
        assert series_outcome(log_deriv_theta, a, x, policy) == want, (a, x, policy)
        seen.add(want[0] if isinstance(want, tuple) else str)
    assert seen >= {str, TruncationExceeded, NearSingularity, DomainError, NonConvergentBase}


@pytest.mark.parametrize("tail_tol", [1.0 - 1e-14, 0.5, 1e-6, 1e-15])
def test_log_deriv_equals_the_stepwise_loop_at_the_stop_boundary(tail_tol):
    # |x| puts 2 (|x| + 1/|x| + 1) |a^n| / (1 - |a|) within a few ulps of
    # tail_tol, a^n formed by repeated multiplication as both loops form it,
    # where the logarithmic estimate of the term count can be one off either
    # way; x and 1/x share that bound
    policy = TruncationPolicy(512, tail_tol)
    for mag in (0.013, 0.11, 0.34, 0.52, 0.66, 0.81, 0.9):
        a = mag * cmath.exp(0.6j)
        an = 1.0 + 0j
        for n in range(1, 200):
            an *= a
            if abs(an) < 1e-280:
                break
            c = tail_tol * (1.0 - abs(a)) / abs(an) / 2.0 - 1.0  # |x| + 1/|x|
            if n % 7 != 1 or not 2.0 < c < 1e300:
                continue
            xmag = 0.5 * (c + math.sqrt(c * c - 4.0))
            for ulps in range(-3, 4):
                x = xmag * (1.0 + ulps * 2.0**-52) * cmath.exp(-2.1j)
                for arg in (x, 1.0 / x):
                    want = series_outcome(log_deriv_stepwise, a, arg, policy)
                    assert series_outcome(log_deriv_theta, a, arg, policy) == want, (a, arg)


def test_tail_tol_stops_at_the_bound_the_log_derivative_needs():
    # at tail_tol = 1 - 2^-53 the count's bound held here while |x a| was
    # still 1/2, and the series kept one term fewer than the stepwise loop;
    # a policy refuses that tail, and at 1 - 1e-14, the most it allows, the
    # two agree
    with pytest.raises(DomainError, match=re.escape("tail_tol must be at most 1 - 1e-14")):
        TruncationPolicy(512, 1.0 - 2.0**-53)
    a = 2.9059443883404108e-18 - 1.1879354247624394e-19j
    x = -1.680550934512656e17 + 3.623696622775556e16j
    policy = TruncationPolicy(512, 1.0 - 1e-14)
    want = series_outcome(log_deriv_stepwise, a, x, policy)
    assert want == "(1.3309370025728542-0.056474465730322734j)"
    assert series_outcome(log_deriv_theta, a, x, policy) == want


def test_near_theta_zero_detects_zero_set():
    a = 0.5
    assert near_theta_zero(a, a**3)
    assert near_theta_zero(a, a ** (-2) * (1 + 1e-9))
    assert not near_theta_zero(a, 0.7)
    # theta_a has no zero at x = 0, and none is looked for outside |a| < 1
    assert not near_theta_zero(a, 0)
    assert not near_theta_zero(1.5, 1.5)


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
