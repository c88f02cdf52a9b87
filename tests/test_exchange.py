"""Exchange-function tests: closed forms against their independent
construction paths, the commuting special points, and nome periodicity."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellex.elliptic import NomeParams
from ellex.errors import DomainError, NearSingularity
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
from ellex.qseries import near_theta_zero
from ellex.rmatrix import mu_inv, pshift_scalar, tau_fn

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
    # theta_{q^4}(x^2) = 0 at x = 1
    "p-shift": lambda: pshift_scalar(1.0, NomeParams(0.2, 0.5)),
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
