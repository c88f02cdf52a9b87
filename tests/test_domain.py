"""Domain checks: every public function rejects a bad base or a zero argument
with the error type of that condition and a message naming the parameter
its caller passed, not an internal theta base."""

import cmath

import pytest

from ellex.elliptic import NomeParams, snh_core
from ellex.errors import DomainError, EllexError, NonConvergentBase
from ellex.exchange import (
    CommutingPoint,
    LevelParams,
    commuting_F,
    exchange_F,
    exchange_Y,
    shift_factor_F,
)
from ellex.poisson import poisson_series_g, poisson_structure, poisson_structure_center
from ellex.qseries import log_deriv_theta, qpochhammer, theta, theta_shift_factor
from ellex.rmatrix import kappa_inv, mu_inv, pshift_scalar, r_plus, tau_fn, tau_fn_pochhammer

NOME = NomeParams(0.18, -0.45)
LEVEL = LevelParams(2, NOME)

OUTSIDE_DISK = {
    "tau_fn q": ("q", lambda b: tau_fn(1.1, b)),
    "poisson_series_g q": ("q", lambda b: poisson_series_g(1.1, b)),
    "commuting_F q": ("q", lambda b: commuting_F(2, CommutingPoint(2), 1.1, b)),
    "mu_inv p": ("p", lambda b: mu_inv(1.1, b, 0.5)),
    "kappa_inv p": ("p", lambda b: kappa_inv(1.21, b, 0.5)),
    "r_plus p": ("p", lambda b: r_plus(1.1, NomeParams(b, 0.5))),
    "qpochhammer b": ("b", lambda b: qpochhammer(0.5, b)),
    "theta a": ("a", lambda b: theta(b, 1.1)),
    "theta_shift_factor a": ("a", lambda b: theta_shift_factor(b, 2, 1.1)),
}


@pytest.mark.parametrize("base", [1.0, 4.0, -1.5j])
@pytest.mark.parametrize("site", sorted(OUTSIDE_DISK))
def test_base_outside_disk_names_the_callers_parameter(site, base):
    name, call = OUTSIDE_DISK[site]
    with pytest.raises(NonConvergentBase, match=rf"^\|{name}\| must lie in \(0, 1\)"):
        call(base)


@pytest.mark.parametrize("site", sorted(OUTSIDE_DISK))
def test_zero_base_is_a_domain_error(site):
    # a typed error naming the base, never a ZeroDivisionError from a^(-n)
    name, call = OUTSIDE_DISK[site]
    with pytest.raises(DomainError, match=rf"^\|?{name}\|? must"):
        call(0.0)


ZERO_X = {
    "theta": lambda x: theta(0.5, x),
    "theta_shift_factor": lambda x: theta_shift_factor(0.5, 2, x),
    "log_deriv_theta": lambda x: log_deriv_theta(0.5, x),
    "tau_fn": lambda x: tau_fn(x, 0.5),
    "tau_fn_pochhammer": lambda x: tau_fn_pochhammer(x, 0.5),
    "mu_inv": lambda x: mu_inv(x, 0.2, 0.5),
    "r_plus": lambda x: r_plus(x, NOME),
    "pshift_scalar": lambda x: pshift_scalar(x, NOME),
    "shift_factor_F": lambda x: shift_factor_F(x, NOME),
    "exchange_F": lambda x: exchange_F(LEVEL, x),
    "exchange_Y": lambda x: exchange_Y(LEVEL, x),
    "commuting_F": lambda x: commuting_F(2, CommutingPoint(2), x, 0.5),
    "poisson_series_g": lambda x: poisson_series_g(x, 0.5),
    "poisson_structure": lambda x: poisson_structure(1, 1, x, 0.5),
    "poisson_structure_center": lambda x: poisson_structure_center(x, 0.5),
}


@pytest.mark.parametrize("site", sorted(ZERO_X))
def test_zero_x_names_x(site):
    with pytest.raises(DomainError, match="^x must be nonzero$"):
        ZERO_X[site](0)


@pytest.mark.parametrize("x", [1e-200, 1e200])
@pytest.mark.parametrize("site", sorted(ZERO_X))
def test_tiny_or_huge_x_is_an_ellex_error(site, x):
    # x^2 underflows or overflows; the error is typed, and a derived argument
    # is not reported as x itself
    with pytest.raises(EllexError) as info:
        ZERO_X[site](x)
    assert not str(info.value).startswith("x must be finite")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tau_fn(1e-200, 0.5), r"^x\^2 must be nonzero$"),
        (lambda: exchange_Y(LEVEL, 1e200), r"^x\^2 must be finite"),
        (lambda: snh_core(1e-200, 0.2), r"^y\^2 must be nonzero$"),
        (lambda: snh_core(1e200, 0.2), r"^y\^2 must be finite"),
    ],
)
def test_underflowing_or_overflowing_square_is_named(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        # a theta product overflows before x^(4m) is formed
        (lambda: commuting_F(2, CommutingPoint(2), 1e40, 0.5), r"^\(x; b\)_inf overflows"),
        # the products stay finite and x^(4m) overflows, or 0 ** -12 is asked for
        (lambda: commuting_F(3, CommutingPoint(2), 1e26, 0.01), r"^commuting_F is not finite"),
        (lambda: commuting_F(-3, CommutingPoint(2), 1e26, 0.01), r"^commuting_F is not finite"),
        # a subnormal x: a^(n+1)/x overflows
        (lambda: log_deriv_theta(0.5, 1e-311 * cmath.exp(0.7j)), r"^1/x must be finite"),
        (lambda: log_deriv_theta(0.5, 1e-311), r"^1/x must be finite"),
        # (x; a) overflows to nan while every factor is finite
        (lambda: theta(0.5, 1e100), r"^\(x; b\)_inf overflows"),
        (lambda: qpochhammer(1e100, 0.5), r"^\(x; b\)_inf overflows"),
    ],
)
def test_value_out_of_floating_point_range_is_a_domain_error(call, message):
    # a DomainError, never a bare OverflowError or ZeroDivisionError, and
    # never an inf or nan returned as a value
    with pytest.raises(DomainError, match=message):
        call()


def test_zero_squared_argument_names_x2():
    with pytest.raises(DomainError, match="^x2 must be nonzero$"):
        kappa_inv(0, 0.2, 0.5)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: LevelParams(0, NOME), "m"),
        (lambda: LevelParams(1.5, NOME), "m"),
        (lambda: CommutingPoint(0), "k"),
        (lambda: commuting_F(0, CommutingPoint(2), 1.1, 0.5), "m"),
        (lambda: poisson_structure(1, 0, 1.1, 0.5), "k"),
    ],
)
def test_levels_must_be_nonzero_integers(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be a nonzero integer$"):
        call()


def test_nome_p_outside_disk_is_a_valid_exchange_point():
    # p = q^-2 is the commuting point k = -1, where F = 1 and Y = 1
    q = 0.5
    level = LevelParams(1, CommutingPoint(-1).exact_nome(q))
    assert abs(exchange_F(level, 1.1) - 1.0) < 1e-12
    assert abs(exchange_Y(level, 1.1) - 1.0) < 1e-12
    with pytest.raises(NonConvergentBase, match=r"^\|p\|"):
        mu_inv(1.1, level.nome.p, q)
