"""Exchange-function tests: closed forms against their independent
construction paths, the commuting special points, and nome periodicity."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellex.elliptic import NomeParams
from ellex import exchange, qseries
from ellex.errors import (
    DomainError,
    EllexError,
    NearSingularity,
    NonConvergentBase,
    TruncationExceeded,
)
from ellex.exchange import (
    CommutingPoint,
    LevelParams,
    check_p_periodicity,
    commuting_F,
    exchange_F,
    exchange_F_iterated,
    exchange_F_negative_by_reciprocity,
    exchange_Y,
    exchange_Y_ratio,
    shift_factor_F,
)
from ellex.qseries import TruncationPolicy, _theta_quotient, near_theta_zero, point_scope
from ellex.rmatrix import mu_inv, tau_fn

NOME = NomeParams(0.18, -0.45)
X = 1.3 + 0.2j


def test_level_params_validation():
    with pytest.raises(DomainError):
        LevelParams(0, NOME)
    level = LevelParams(2, NOME)
    assert abs(NOME.q ** (level.c + 2) - NOME.p**2) < 1e-12
    assert level.q_pow_c == NOME.p**2 / NOME.q**2


def test_commuting_point_validation():
    with pytest.raises(DomainError):
        CommutingPoint(0)
    assert CommutingPoint(3).parity == "odd"
    assert CommutingPoint(-2).parity == "even"
    nome = CommutingPoint(2).exact_nome(0.6)
    assert nome.p == 0.6**4


@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
def test_exchange_f_two_paths(m):
    level = LevelParams(m, NOME)
    closed = exchange_F(level, X)
    iterated = exchange_F_iterated(level, X)
    assert abs(closed - iterated) <= 1e-10 * abs(closed)


PIN_Q = 0.5 + 0.2j
# (m, F(m, X), Y(X)) by repr at three nomes: |p| < 1, |p| > 1, and p = q^-2
EXCHANGE_PINS = {
    0.21 - 0.1j: [
        (-3, "(-0.24972514722820893+0.315491090298292j)",
         "(-1.3813840963842954+3.659135401424352j)"),
        (-2, "(-0.09073941659992601-0.37769953379528126j)",
         "(2.7119339315706408-2.7568465991410225j)"),
        (-1, "(-0.10689153606884759-0.35184951448101837j)",
         "(0.5724113182897073+0.8887308788211368j)"),
        (1, "(0.9208296878836649+0.027259669196085544j)",
         "(0.5846937052095798+1.0085369122536298j)"),
        (2, "(-0.02693443798599101+0.21060621997521872j)",
         "(0.42198671332499804+1.0431061565953557j)"),
        (3, "(-0.028790922363038308+0.36174275829108404j)",
         "(-0.19233785515520063+2.5851957635081413j)"),
    ],
    1.4 + 0.5j: [
        (-3, "(0.07274724883734637-0.31025517082196535j)",
         "(-0.002427527024420306-0.002594902191593806j)"),
        (-2, "(0.07456236258520332-0.2946317802259816j)",
         "(-0.0027059869658595274-0.0030348611866642208j)"),
        (-1, "(0.1296439474242721-0.2824646078428461j)",
         "(-0.0036236302046118093-0.006762592926778028j)"),
        (1, "(-139.19998665560578+93.43112905428158j)",
         "(-0.020226799936769235-0.029956947650595735j)"),
        (2, "(-295.1926819098326+90.38913187859336j)",
         "(-0.002773941523438275-0.0038130086097159024j)"),
        (3, "(-308.6746232494093+73.9633989544256j)",
         "(-0.002668624710093079-0.0027465413790114875j)"),
    ],
    PIN_Q**-2: [
        (-3, "(0.999999999999997-7.771561172376096e-16j)",
         "(0.9999999999999996-7.771561172376177e-16j)"),
        (-2, "(0.9999999999999983-1.1102230246251565e-16j)",
         "(0.9999999999999989+6.661338147750906e-16j)"),
        (-1, "(0.9999999999999989+1.1102230246251565e-16j)",
         "(0.9999999999999993+4.4408920985006217e-16j)"),
        (1, "(1.0000000000000009-3.3306690738754696e-16j)",
         "(1.0000000000000013+3.3306690738754716e-16j)"),
        (2, "(0.9999999999999998-2.7755575615628914e-16j)",
         "(1.0000000000000009+1.8873791418627665e-15j)"),
        (3, "(0.9999999999999981+5.551115123125783e-17j)",
         "(1.0000000000000022+2.1094237467877974e-15j)"),
    ],
}


@pytest.mark.parametrize("p", list(EXCHANGE_PINS), ids=["p-in-disk", "p-outside-disk", "p-q^-2"])
def test_exchange_closed_forms_keep_their_bits(p):
    # every branch of the closed forms (both signs of m, |p| on either side
    # of 1, complex q and x) pinned by repr
    got = [
        (m, repr(exchange_F(LevelParams(m, NomeParams(p, PIN_Q)), X)),
         repr(exchange_Y(LevelParams(m, NomeParams(p, PIN_Q)), X)))
        for m, _, _ in EXCHANGE_PINS[p]
    ]
    assert got == EXCHANGE_PINS[p]


def closed_form_per_step(table, first, last, step, nome, x, policy):
    """The closed-form loop as it was before the base was hoisted out of it:
    every step checks q^4 again and forms (q^4; q^4) and its powers afresh,
    in a quotient of its own, and no step is kept for another level.  It
    also says whether a step's quotient was exactly 0.  exchange._closed_form
    must equal it."""
    xv = qseries._nonzero(x, "x")
    p, q = nome.p, nome.q
    q4 = q**4
    q2 = q * q
    x2 = qseries._square(xv, "x^2")
    ix2 = 1.0 / x2
    heads = (x2, ix2, x2 * q2, ix2 * q2)
    (a, a_up), (b, b_up), (c, c_up), (d, d_up) = [
        (heads[2 * k + (e < 0)], f > 0) for side in table for e, k, f in side
    ]
    ps = result = 1.0 + 0j
    zero = False
    for s in range(first, last + 1):
        if s:
            ps *= p
            if ps == 0:
                raise DomainError(f"p^{s} underflows at p = {p!r}")
        nums = (a * ps if a_up else a / ps, b * ps if b_up else b / ps)
        dens = (c * ps if c_up else c / ps, d * ps if d_up else d / ps)
        quot = _theta_quotient(qseries._base(q4, policy, "q^4"), nums, dens)
        zero = zero or quot == 0
        result *= step(quot, q, x2)
    return result, zero


def exchange_F_per_step(level, x, policy):
    m, nome = level.m, level.nome
    if m > 0:
        form = (exchange._F_POS, 1, 2 * m, lambda u, q, x2: u / q)
    else:
        form = (exchange._F_NEG, 0, -2 * m - 1, lambda u, q, x2: q * u)
    return exchange._finite(*closed_form_per_step(*form, nome, x, policy), "F", level, x)


def exchange_Y_per_step(level, x, policy):
    upper = 2 * level.m - 1 if level.m > 0 else 2 * abs(level.m)
    form = (exchange._Y, 1, upper, lambda u, q, x2: x2 * u)
    inner, zero = closed_form_per_step(*form, level.nome, x, policy)
    return exchange._finite(inner * inner, zero, "Y", level, x)


def outcome_and_message(f, *args):
    try:
        return repr(f(*args))
    except EllexError as exc:
        return type(exc), str(exc)


def per_step_draws(count):
    """Seeded (level, x, policy): complex q with |q| in [0.05, 0.7], |p| in
    [0.05, 20] around 1, m cycling over +-1..3; a few draws put x on a
    denominator zero, q^4 below the floating-point range, p^2 or x^2 out of
    range, or the cap at 8 factors."""
    rng = random.Random(2025)
    for i in range(count):
        q = cmath.rect(0.05 * 14.0 ** rng.random(), rng.uniform(-3.1, 3.1))
        p = cmath.rect(0.05 * 400.0 ** rng.random(), rng.uniform(-3.1, 3.1))
        x = cmath.rect(math.exp(rng.uniform(-1.0, 1.0)), rng.uniform(-3.1, 3.1))
        policy = TruncationPolicy()
        special = rng.randrange(40)
        if special == 0:
            x = cmath.sqrt(p)  # theta(x^-2 p) = 0 at s = 1
        elif special == 1:
            q = 1e-100 * q / abs(q)
        elif special == 2:
            p = 1e-170 * p / abs(p)
        elif special == 3:
            x = 1e-160
        elif special == 4:
            policy = TruncationPolicy(8)
        yield LevelParams((1, -1, 2, -2, 3, -3)[i % 6], NomeParams(p, q)), x, policy


def test_closed_forms_equal_the_per_step_quotient_product():
    # one base per closed form, its (q^4; q^4) and powers shared by every
    # step, changes no value and no error, nor which error wins
    seen = set()
    for level, x, policy in per_step_draws(2400):
        for closed, per_step in ((exchange_F, exchange_F_per_step),
                                 (exchange_Y, exchange_Y_per_step)):
            want = outcome_and_message(per_step, level, x, policy)
            assert outcome_and_message(closed, level, x, policy) == want, (level, x)
            seen.add(want[0] if isinstance(want, tuple) else str)
    assert seen == {str, DomainError, NearSingularity, TruncationExceeded, NonConvergentBase}


# --- the levels of one point share their closed-form steps ---------------------


def test_levels_in_a_scope_equal_the_per_step_quotient_product():
    # every level of F and Y at one point, in a shuffled order inside one
    # scope: each value, error and message is that of a fresh evaluation,
    # whichever levels ran before it
    rng = random.Random(7)
    seen = set()
    for level, x, policy in per_step_draws(600):
        levels = [LevelParams(m, level.nome) for m in (1, -1, 2, -2, 3, -3)]
        calls = [(closed, per_step, at) for at in levels
                 for closed, per_step in ((exchange_F, exchange_F_per_step),
                                          (exchange_Y, exchange_Y_per_step))]
        rng.shuffle(calls)
        with point_scope():
            for closed, per_step, at in calls:
                want = outcome_and_message(per_step, at, x, policy)
                assert outcome_and_message(closed, at, x, policy) == want, (at, x)
                seen.add(want[0] if isinstance(want, tuple) else str)
    assert seen == {str, DomainError, NearSingularity, TruncationExceeded, NonConvergentBase}


def commuting_calls(cp, q, x, policy):
    """The calls of the commuting-points suite at one point: F, commuting_F
    and Y at each level m = -3..3."""
    nome = cp.exact_nome(q)
    calls = []
    for m in (-3, -2, -1, 1, 2, 3):
        level = LevelParams(m, nome)
        calls += [(exchange_F, (level, x, policy)), (commuting_F, (m, cp, x, q, policy)),
                  (exchange_Y, (level, x, policy))]
    return calls


def test_levels_at_one_point_form_each_step_once(monkeypatch):
    # F at m = 1..3, F at m = -1..-3 and Y at all six levels are three
    # running products of 6 steps each, 18 step quotients; level by level
    # they take 2 + 4 + 6 twice and 1 + 3 + 5 + 2 + 4 + 6, 45 in all.
    # commuting_F forms its one quotient at every level, in the scope from
    # the two thetas the base keeps.
    calls = commuting_calls(CommutingPoint(2), 0.55 - 0.1j, 1.2 + 0.15j, TruncationPolicy())
    alone = [repr(fn(*args)) for fn, args in calls]
    steps = []

    def counting(base, nums, dens, *args, **kwargs):
        steps.append(len(dens))  # a closed-form step has two denominator factors
        return _theta_quotient(base, nums, dens, *args, **kwargs)

    monkeypatch.setattr(exchange, "_theta_quotient", counting)
    with point_scope():
        shared = [repr(fn(*args)) for fn, args in calls]
    assert (steps.count(2), steps.count(1)) == (18, 6)
    assert shared == alone and len(set(alone)) > 6
    steps.clear()
    for fn, args in calls:  # outside a scope nothing is shared
        fn(*args)
    assert (steps.count(2), steps.count(1)) == (45, 6)


def test_a_commuting_ratio_that_raises_does_so_at_every_level():
    # x^2 = q^4 puts the ratio's denominator on a zero of theta_{q^4}; the
    # failing quotient stores nothing, so each level raises the same error
    q = 0.6 + 0.2j
    cp = CommutingPoint(2)
    alone = [outcome_and_message(commuting_F, m, cp, q * q, q) for m in (1, -2, 3)]
    assert alone[0][0] is NearSingularity and alone.count(alone[0]) == 3
    with point_scope():
        assert [outcome_and_message(commuting_F, m, cp, q * q, q) for m in (1, -2, 3)] == alone


def test_a_step_that_raises_does_so_whichever_levels_ran_before():
    # x^2 = p^5 puts the denominator x^-2 p^s of F's step s = 5 on a zero of
    # theta_{q^4}: level 3 raises there, after levels 1 and 2 stored steps
    # 1..4 or alone, and the failing step stores nothing
    nome = NomeParams(0.3 + 0.1j, 0.5 - 0.2j)
    x = cmath.sqrt(nome.p**5)
    low, mid, high = (LevelParams(m, nome) for m in (1, 2, 3))
    alone = outcome_and_message(exchange_F, high, x)
    assert alone[0] is NearSingularity
    with point_scope():
        assert outcome_and_message(exchange_F, low, x) == repr(exchange_F(low, x))
        assert outcome_and_message(exchange_F, high, x) == alone
        assert outcome_and_message(exchange_F, mid, x) == repr(exchange_F(mid, x))
        assert outcome_and_message(exchange_F, high, x) == alone


# F at this point is subnormal at m = -25 and underflows to 0 at m = -26,
# with no step 0
UNDERFLOW_NOME = NomeParams(0.9183099367747641 + 0.022373689537674168j,
                            -0.03988826010863804 + 0.8757637783654194j)
UNDERFLOW_X = -0.3104834713268973 - 0.17483602480197497j


@pytest.mark.parametrize("order", [(-25, -26, -25), (-26, -25, -26)])
def test_an_underflow_is_refused_at_its_own_level(order):
    # the run stores a nonzero product for m = -25 and a zero one for
    # m = -26, so each level decides for itself
    alone = exchange_F(LevelParams(-25, UNDERFLOW_NOME), UNDERFLOW_X)
    assert alone != 0 and abs(alone) < 1e-300
    refused = (DomainError, f"F underflows to 0 at x = {UNDERFLOW_X!r}, m = -26")
    with point_scope():
        for m in order:
            got = outcome_and_message(exchange_F, LevelParams(m, UNDERFLOW_NOME), UNDERFLOW_X)
            assert got == (refused if m == -26 else repr(alone))


@pytest.mark.parametrize("m", [-3, -2, -1])
def test_exchange_f_negative_reciprocity(m):
    level = LevelParams(m, NOME)
    closed = exchange_F(level, X)
    other = exchange_F_negative_by_reciprocity(level, X)
    assert abs(closed - other) <= 1e-10 * abs(closed)


def test_exchange_f_even_in_x():
    level = LevelParams(2, NOME)
    assert exchange_F(level, X) == exchange_F(level, -X)


def test_shift_factor_finite_at_tau_degeneration():
    # x^2 q = 1 degenerates one tau factor to 1/x but keeps F finite
    q = NOME.q
    x = 1.0 / cmath.sqrt(q)
    val = shift_factor_F(x, NOME)
    assert abs(val) > 0 and abs(val) < 1e6


def test_shift_factor_p_move_matches_theta_shift():
    # under p -> p q^4 the four-tau product picks up exact theta shift factors,
    # leaving F(m, x) itself invariant; spot-check the invariance at m = 1
    level = LevelParams(1, NomeParams(0.1, 0.5))
    shifted = LevelParams(1, NomeParams(0.1 * 0.5**4, 0.5))
    a = exchange_F(level, X)
    b = exchange_F(shifted, X)
    assert abs(a - b) <= 1e-11 * abs(a)


@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
def test_exchange_y_two_paths(m):
    level = LevelParams(m, NOME)
    closed = exchange_Y(level, X)
    ratio = exchange_Y_ratio(level, X)
    assert abs(closed - ratio) <= 1e-9 * abs(closed)


def test_exchange_y_feigin_frenkel_identities():
    q = NOME.q
    for m in (1, -2):
        level = LevelParams(m, NOME)
        y = exchange_Y(level, X)
        assert abs(exchange_Y(level, X * q * q) - y) <= 1e-10 * max(1.0, abs(y))
        assert abs(
            exchange_Y(level, X * q) - exchange_Y(level, 1.0 / X)
        ) <= 1e-10 * max(1.0, abs(y))


@given(
    x=st.complex_numbers(
        min_magnitude=0.7, max_magnitude=1.4, allow_nan=False, allow_infinity=False
    )
)
@settings(max_examples=25, deadline=None)
def test_exchange_y_inversion_product(x):
    # the quadratic relation forces Y(x) Y(1/x) = 1
    if near_theta_zero(NOME.q ** 2, x * x, 1e-3):
        return
    level = LevelParams(1, NOME)
    prod = exchange_Y(level, x) * exchange_Y(level, 1.0 / x)
    assert abs(prod - 1.0) < 1e-10


@pytest.mark.parametrize("k", [1, 3, -1, -3])
@pytest.mark.parametrize("m", [-2, 1, 3])
def test_commuting_odd_k_forces_f_one(k, m):
    cp = CommutingPoint(k)
    nome = cp.exact_nome(0.6)
    level = LevelParams(m, nome)
    assert abs(exchange_F(level, 1.3) - 1.0) <= 1e-10
    assert abs(exchange_Y(level, 1.3) - 1.0) <= 1e-10
    assert commuting_F(m, cp, 1.3, 0.6) == 1.0


@pytest.mark.parametrize("k", [2, -2])
@pytest.mark.parametrize("m", [-1, 1, 2])
def test_commuting_even_k_closed_form(k, m):
    cp = CommutingPoint(k)
    nome = cp.exact_nome(0.6)
    level = LevelParams(m, nome)
    f = exchange_F(level, 1.3)
    ref = commuting_F(m, cp, 1.3, 0.6)
    assert abs(f - ref) <= 1e-10 * abs(ref)
    assert abs(exchange_Y(level, 1.3) - 1.0) <= 1e-10


# one point per guarded theta quotient, each on a zero of a denominator factor
THETA_QUOTIENT_ZEROS = {
    # theta_{q^4}(q x^-2) = 0 at x^2 = q
    "tau": lambda: tau_fn(0.5, 0.25),
    # theta_{q^4}(x^-2 p) = 0 at x^2 = p
    "F": lambda: exchange_F(LevelParams(1, NomeParams(0.2, 0.5)), math.sqrt(0.2)),
    # theta_{q^4}(x^2 p) = 0 at x^2 = 1/p
    "Y": lambda: exchange_Y(LevelParams(1, NomeParams(0.2, 0.5)), 1 / math.sqrt(0.2)),
    # theta_{p^2}(q^2 x^2) = 0 at q^2 x^2 = p^2
    "mu": lambda: mu_inv(0.5, 0.2, 0.4),
    # theta_{q^4}(x^2) = 0 at x = 1, which the even-k closed form excludes
    "commuting-F": lambda: commuting_F(1, CommutingPoint(2), 1.0, 0.6),
}


@pytest.mark.parametrize("site", sorted(THETA_QUOTIENT_ZEROS))
def test_theta_quotient_guard_raises_at_denominator_zero(site):
    with pytest.raises(NearSingularity):
        THETA_QUOTIENT_ZEROS[site]()


def test_p_periodicity_check_and_domain_guard():
    level = LevelParams(1, NomeParams(0.1, 0.5))
    assert check_p_periodicity(level, 1.2 + 0.1j) <= 1e-10

    # |p q^4| >= 1 is outside the domain: an error, never a silent pass
    big = CommutingPoint(-3).exact_nome(0.8)  # p = 0.8^-6, p q^4 = 0.8^-2
    with pytest.raises(DomainError):
        check_p_periodicity(LevelParams(1, big), 1.2)
