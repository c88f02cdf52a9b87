"""Domain checks: every public function rejects a bad base or a zero argument
with the error type of that condition and a message naming the parameter
its caller passed, not an internal theta base."""

import cmath
import math
from functools import partial

import pytest

from ellex.elliptic import EllipticParams, NomeParams, baxter_entries, jacobi_snh, snh_core
from ellex.errors import (
    AnnulusContainsPole,
    DomainError,
    EllexError,
    NearSingularity,
    NonConvergentBase,
    SingularMatrix,
)
from ellex.exchange import (
    CommutingPoint,
    LevelParams,
    commuting_F,
    exchange_F,
    exchange_F_negative_by_reciprocity,
    exchange_Y,
    shift_factor_F,
)
from ellex.poisson import (
    AnnulusLabel,
    ModeBracketTable,
    format_mode_bracket,
    laurent_modes,
    poisson_series_g,
    poisson_structure,
    poisson_structure_center,
)
from ellex.qseries import (
    TruncationPolicy,
    _base,
    _theta_quotient,
    log_deriv_theta,
    qpochhammer,
    theta,
    theta_shift_factor,
)
from ellex.rmatrix import (
    kappa_inv,
    mu_inv,
    partial_transpose,
    r_plus,
    rmatrix_inverse,
    tau_fn,
    tau_fn_pochhammer,
)

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
        # a subnormal square: nonzero, but its reciprocal overflows
        (lambda: tau_fn(1e-155, 0.5), r"^1/x\^2 is out of floating-point range at x\^2 = "),
        (lambda: snh_core(1e-155, 0.2), r"^1/y\^2 is out of floating-point range at y\^2 = "),
        (lambda: kappa_inv(1e-310, 0.2, 0.5), r"^1/x2 is out of floating-point range at x2 = "),
        # a normal square whose reciprocal has finite parts and a modulus
        # that overflows abs()
        (lambda: poisson_series_g(-2.6856352700903824e-155 - 6.787535176026949e-155j, 0.5),
         r"^1/x\^2 is out of floating-point range at x\^2 = "),
        (lambda: kappa_inv(-3.88579969618497e-309 + 3.64576877314342e-309j, 0.2, 0.5),
         r"^1/x2 is out of floating-point range at x2 = "),
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
        # finite parts whose modulus overflows abs()
        (lambda: theta(0.5, 1.5e308 + 1.5e308j), r"^\|x\| is out of floating-point range"),
        (lambda: theta(1.5e308 + 1.5e308j, 1.1), r"^\|a\| is out of floating-point range"),
        # e^(pi u / 2K) overflows math.exp
        (lambda: jacobi_snh(1e4, 0.5), r"^snh argument e\^\(pi u / 2K\) overflows"),
        # each product is finite; the running products of the quotient overflow
        (lambda: mu_inv(1e6 * cmath.exp(0.3j), 0.2, 0.5), r"^kappa_inv row products out of"),
        (lambda: kappa_inv(1e20 * cmath.exp(0.6j), 0.2, 0.5), r"^kappa_inv row products out of"),
        (lambda: exchange_F(LevelParams(1, NomeParams(0.2, 0.5)), 2e9 * cmath.exp(0.3j)),
         r"^theta quotient out of floating-point range"),
        # every step's quotient is finite; the running product overflows
        (lambda: exchange_F(LevelParams(-3, NomeParams(0.02, 1e-73)), 1e-70),
         r"^F is not finite at x = \(1e-70\+0j\), m = -3$"),
        (lambda: exchange_Y(LevelParams(3, NomeParams(1e-21, 1e-73)), 1e26),
         r"^Y is not finite at x = \(1e\+26\+0j\), m = 3$"),
        (lambda: mu_inv(1e6, 0.2, 0.5), r"^kappa_inv row products out of"),
    ],
)
def test_value_out_of_floating_point_range_is_a_domain_error(call, message):
    # a DomainError, never a bare OverflowError or ZeroDivisionError, and
    # never an inf or nan returned as a value
    with pytest.raises(DomainError, match=message):
        call()


SWEEP = {
    "mu_inv": lambda x: mu_inv(x, 0.2, 0.5),
    "kappa_inv": lambda x: kappa_inv(x * x, 0.2, 0.5),
    "tau_fn": lambda x: tau_fn(x, 0.5),
    "exchange_F": lambda x: exchange_F(LevelParams(2, NomeParams(0.2, 0.5)), x),
    "exchange_Y": lambda x: exchange_Y(LevelParams(-2, NomeParams(0.2, 0.5)), x),
}


@pytest.mark.parametrize("site", sorted(SWEEP))
def test_quotients_are_finite_or_raise_over_every_decade(site):
    # |x| = 10^e at p 0.2, q 0.5: a value is finite, or the call raises a
    # typed error; nan and inf are never returned
    for e in range(-20, 21):
        for x in (10.0**e, 10.0**e * cmath.exp(0.3j)):
            try:
                value = SWEEP[site](x)
            except EllexError:
                continue
            assert cmath.isfinite(value), (e, x, value)


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


EMPTY_TABLE = ModeBracketTable(AnnulusLabel(1), {}, {}, "center", {})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: theta_shift_factor(0.5, 1.5, 1.1), DomainError,
         r"^shift order s must be an integer$"),
        (lambda: EllipticParams(0.5, 0.3, float("nan")), DomainError,
         r"^u must be finite, got nan$"),
        (lambda: jacobi_snh(float("inf"), 0.5), DomainError, r"^u must be finite, got inf$"),
        # q = -p puts -1/q on a zero of snh's numerator theta_{p^2}(y^-2)
        (lambda: r_plus(1.1, NomeParams(0.3, -0.3)), NearSingularity,
         r"^snh\(lambda\) below tolerance in entry assembly$"),
        (lambda: baxter_entries(EllipticParams(0.5, 1e-12)), NearSingularity,
         r"^snh\(lambda\) = 9\.999e-13 below tolerance$"),
        # q x^-2 = 1 exactly, so (q x^-2; q^4) starts with the factor 0
        (lambda: tau_fn_pochhammer(0.5, 0.25), NearSingularity,
         r"^tau denominator vanished at x = \(0\.5\+0j\)$"),
        (lambda: exchange_F_negative_by_reciprocity(LEVEL, 1.1), DomainError,
         r"^reciprocity path applies to negative m only$"),
        (lambda: partial_transpose((1, 0, 0, 0), 3), DomainError, r"^slot must be 1 or 2, got 3$"),
        (lambda: rmatrix_inverse((1.0, 1.0, 0.0, math.nan)), SingularMatrix,
         r"^singular values \[nan, nan, 1\.0, 1\.0\] are not all finite$"),
        (lambda: AnnulusLabel(0.5), DomainError, r"^annulus label must be an integer$"),
        (lambda: laurent_modes("klimit", q=0.5, annulus=AnnulusLabel(1)), DomainError,
         r"^the k-labeled structure function needs m and k$"),
        (lambda: laurent_modes("nope", q=0.5, annulus=AnnulusLabel(1)), DomainError,
         r"^unknown structure function 'nope'$"),
        (lambda: format_mode_bracket(EMPTY_TABLE, 1.5, 2, 3), DomainError,
         r"^mode indices must be integers and cutoff >= 0$"),
        (lambda: format_mode_bracket(EMPTY_TABLE, 1, 2, -1), DomainError,
         r"^mode indices must be integers and cutoff >= 0$"),
    ],
)
def test_argument_outside_its_domain_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_nome_p_outside_disk_is_a_valid_exchange_point():
    # p = q^-2 is the commuting point k = -1, where F = 1 and Y = 1
    q = 0.5
    level = LevelParams(1, CommutingPoint(-1).exact_nome(q))
    assert abs(exchange_F(level, 1.1) - 1.0) < 1e-12
    assert abs(exchange_Y(level, 1.1) - 1.0) < 1e-12
    with pytest.raises(NonConvergentBase, match=r"^\|p\|"):
        mu_inv(1.1, level.nome.p, q)


def _relative(f):
    """f at relative distance 1e-9 from a zero of its denominator theta (to
    be refused) and at 1e-7 (to be evaluated)."""
    return partial(f, 1e-9), lambda: [f(1e-7)]


def _center_modes(q):
    table = laurent_modes("center", q=q, annulus=AnnulusLabel(4), l_max=1, quadrature_points=128)
    assert table.params["radius"] == q**3.5
    return list(table.raw_coefficients.values())


# every theta denominator refuses a point within relative 1e-8 of a zero;
# laurent_modes puts its radius against the pole circles |q|^j by the same
# relative test at 1e-6, so a radius 7 times the nearest circle's is fine
ONE_RULE = {
    "_theta_quotient": (NearSingularity, *_relative(
        lambda d: _theta_quotient(_base(0.4j, TruncationPolicy()), (0.7,), ((0.4j) ** 2 * (1 + d),))
    )),
    "snh_core": (NearSingularity, *_relative(lambda d: snh_core((0.5 / (1 + d)) ** 0.5, 0.5))),
    "log_deriv_theta": (NearSingularity, *_relative(lambda d: log_deriv_theta(0.3, 0.09 * (1 + d)))),
    "poisson_series_g": (NearSingularity, *_relative(
        lambda d: poisson_series_g((0.25 * (1 + d)) ** 0.5, 0.5)
    )),
    "laurent_modes": (
        AnnulusContainsPole, partial(_center_modes, 0.999999), partial(_center_modes, 0.02)
    ),
}


@pytest.mark.parametrize("site", sorted(ONE_RULE))
def test_every_denominator_guard_is_one_relative_rule(site):
    error, refused, evaluated = ONE_RULE[site]
    with pytest.raises(error):
        refused()
    assert all(cmath.isfinite(v) for v in evaluated())
