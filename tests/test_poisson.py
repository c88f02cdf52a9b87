"""Poisson-limit tests: structure-function series against brute-force
partial sums, the central bracket against finite differences and the
series, the finite-step limit, and contour-extracted mode coefficients
against analytic expansions and residues."""

import cmath
import math

import pytest

from ellex.errors import (
    AnnulusContainsPole,
    DomainError,
    NearSingularity,
    QuadratureUnresolved,
)
from ellex.poisson import (
    AnnulusLabel,
    BetaLimitRequest,
    ModeBracketTable,
    beta_limit_check,
    format_mode_bracket,
    laurent_modes,
    poisson_series_g,
    poisson_structure,
    poisson_structure_center,
)
from ellex.rmatrix import tau_fn


def g_brute(x, q, terms=20000):
    a = x * x
    b = 1.0 / a
    tot = a / (1 - a) - b / (1 - b)
    for n in range(terms):
        t = q ** (4 * n)
        tot += (
            -2 * a * t / (1 - a * t)
            + 2 * a * t * q * q / (1 - a * t * q * q)
            + 2 * b * t / (1 - b * t)
            - 2 * b * t * q * q / (1 - b * t * q * q)
        )
    return tot


# --- series ------------------------------------------------------------------


def test_series_matches_brute_force():
    # frozen from g_brute(1.5, 0.4, 20000)
    assert poisson_series_g(1.5, 0.4) == pytest.approx(3.4855779945800207, abs=1e-12)
    x = 0.8 + 0.5j
    assert abs(poisson_series_g(x, 0.4) - g_brute(x, 0.4)) < 1e-12


def test_series_antisymmetry():
    for x in (1.5, 0.8 + 0.5j, 1.2 - 0.3j):
        total = poisson_series_g(x, 0.4) + poisson_series_g(1.0 / x, 0.4)
        assert abs(total) <= 1e-11 * max(1.0, abs(poisson_series_g(x, 0.4)))


def test_series_imaginary_unit_cancellation():
    # x = i puts x^2 = x^-2 = -1, the fixed point of the antisymmetry
    assert abs(poisson_series_g(1j, 0.4)) < 1e-13


def test_series_pole_guard():
    with pytest.raises(NearSingularity):
        poisson_series_g(1.0 + 1e-10, 0.4)
    with pytest.raises(NearSingularity):
        poisson_series_g(0.4, 0.4)  # x = q is a pole


# --- full structure function ---------------------------------------------------


def test_structure_prefactors_by_parity():
    x, q = 1.5, 0.5
    g = poisson_series_g(x, q)
    assert poisson_structure(1, 1, x, q) == pytest.approx(2 * math.log(q) * g, rel=1e-13)
    assert poisson_structure(1, 2, x, q) == pytest.approx(-4 * math.log(q) * g, rel=1e-13)
    assert poisson_structure(2, 3, x, q) == pytest.approx(12 * math.log(q) * g, rel=1e-13)
    assert poisson_structure(2, 2, x, q) == pytest.approx(
        -2 * 2 * 2 * 3 * math.log(q) * g, rel=1e-13
    )
    with pytest.raises(DomainError):
        poisson_structure(0, 1, x, q)


def test_center_structure_antisymmetric():
    q = 0.45
    for x in (1.4, 0.9 + 0.3j):
        total = poisson_structure_center(x, q) + poisson_structure_center(1.0 / x, q)
        assert abs(total) < 1e-11


def test_center_structure_matches_series_functionally():
    # one-point normalization, then a functional identity across the grid
    q = 0.45
    norm = poisson_structure_center(1.37, q) / poisson_series_g(1.37, q)
    for x in (0.7, 1.1 + 0.2j, 1.8, 0.85 - 0.4j):
        lhs = poisson_structure_center(x, q)
        rhs = norm * poisson_series_g(x, q)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
    # the fitted constant is the bracket normalization 2 ln q
    assert norm == pytest.approx(2 * math.log(q), rel=1e-10)


def test_center_structure_matches_finite_difference():
    q, x, h = 0.45, 1.4, 1e-6

    def log_tau(y):
        return cmath.log(tau_fn(cmath.sqrt(q) * y, q))

    d1 = x * (log_tau(x + h) - log_tau(x - h)) / (2 * h)
    u = 1.0 / x
    d2 = u * (log_tau(u + h) - log_tau(u - h)) / (2 * h)
    fd = -math.log(q) * (d1 - d2)
    assert abs(poisson_structure_center(x, q) - fd) < 1e-8


# --- beta limit -----------------------------------------------------------------


def test_beta_limit_request_invariants():
    req = BetaLimitRequest(m=1, k=1, beta=1e-2, q=0.5)
    # q^(2k) = p^(1 - beta/2)
    assert req.p ** (1 - req.beta / 2) == pytest.approx(0.5**2, rel=1e-12)
    with pytest.raises(DomainError):
        BetaLimitRequest(m=1, k=1, beta=0.0, q=0.5)
    with pytest.raises(DomainError):
        BetaLimitRequest(m=1, k=-1, beta=1e-2, q=0.5)  # |p| > 1


@pytest.mark.parametrize("m,k,x", [(1, 1, 1.4), (1, 2, 1.4), (2, 1, 1.3), (-1, 1, 1.25)])
def test_beta_limit_first_order_convergence(m, k, x):
    defect, info = beta_limit_check(BetaLimitRequest(m=m, k=k, beta=1e-2, q=0.5), x)
    assert defect <= math.log10(2.0)
    assert 5.0 <= info["error_ratio"] <= 20.0
    assert info["err_beta_over_10"] < info["err_beta"]


# --- laurent modes ----------------------------------------------------------------


def klimit_table(annulus, lmax=6, nodes=128, q=0.5):
    return laurent_modes(
        "klimit",
        q=q,
        annulus=AnnulusLabel(annulus),
        l_max=lmax,
        quadrature_points=nodes,
        m=1,
        k=1,
    )


# the prefactor over ln q: 2km for odd k, -2km(2m - 1) for even k, 2 for the center
@pytest.mark.parametrize(
    "which,m,k,pref_over_lnq",
    [("klimit", 1, 1, 2), ("klimit", 2, 2, -24), ("klimit", -1, 3, -6), ("center", None, None, 2)],
)
@pytest.mark.parametrize("q", [0.5, 0.7])
@pytest.mark.parametrize("annulus", [0, 1])
def test_modes_match_geometric_expansion(which, m, k, pref_over_lnq, q, annulus):
    # analytic annulus-0 expansion of g: coefficient 1 at l = 0,
    # 2 q^(2j)/(1 + q^(2j)) at l = 2j, 2/(1 + q^(2j)) at l = -2j and 0 at odd l
    # (g is even in x); annulus 1 is the mirror, raw_1[l] = -raw_0[-l]
    lmax = 32
    pref = pref_over_lnq * math.log(q)
    sign = 1 if annulus == 0 else -1
    raw = laurent_modes(
        which, q=q, annulus=AnnulusLabel(annulus), l_max=lmax, quadrature_points=512, m=m, k=k
    ).raw_coefficients
    for l, got in raw.items():
        j = sign * l
        if j == 0:
            expect = 1.0
        elif j % 2:
            expect = 0.0
        elif j > 0:
            expect = 2 * q**j / (1 + q**j)
        else:
            expect = 2 / (1 + q**-j)
        expect *= sign * pref
        assert abs(got - expect) <= 1e-11 * (abs(expect) or abs(pref)), l


@pytest.mark.parametrize("lmax", [0, 5])
def test_modes_keys_are_minus_lmax_to_lmax(lmax):
    tab = klimit_table(0, lmax=lmax)
    assert list(tab.raw_coefficients) == list(range(-lmax, lmax + 1))
    assert list(tab.coefficients) == list(range(-lmax, lmax + 1))


def test_modes_structure_constants_antisymmetric():
    tab = klimit_table(0)
    assert tab.antisymmetry_violation() <= 1e-12
    # raw coefficients on one annulus are not antisymmetric; the inversion
    # x -> 1/x maps annulus 0 onto annulus 1 instead
    raw0 = tab.raw_coefficients
    raw1 = klimit_table(1).raw_coefficients
    assert abs(raw0[2] + raw0[-2]) > 0.1  # genuinely asymmetric raw data
    for l in raw0:
        assert abs(raw0[l] + raw1[-l]) <= 1e-10 * max(1.0, abs(raw0[l]))


def test_modes_residue_step_between_annuli():
    # crossing |x| = |q|^n changes g_l by the residue sum (-1)^n q^(-n l) (1 + (-1)^l)
    q = 0.5
    pref = 2 * math.log(q)
    tabs = {n: klimit_table(n).raw_coefficients for n in (0, 1, 2)}
    for n in (0, 1):
        for l in range(-6, 7):
            expected = pref * (-1.0) ** n * q ** (-n * l) * (1 + (-1.0) ** l)
            got = tabs[n][l] - tabs[n + 1][l]
            assert abs(got - expected) <= 1e-8 * max(1.0, abs(expected))


def test_modes_center_variant_scales_identically():
    q = 0.5
    raw = laurent_modes(
        "center", q=q, annulus=AnnulusLabel(0), l_max=4, quadrature_points=128
    ).raw_coefficients
    pref = 2 * math.log(q)
    assert raw[2] / pref == pytest.approx(2 * q**2 / (1 + q**2), rel=1e-9)


def test_modes_guards():
    with pytest.raises(DomainError):
        laurent_modes("klimit", q=0.5, annulus=AnnulusLabel(0), l_max=8,
                      quadrature_points=16, m=1, k=1)
    with pytest.raises(DomainError):
        laurent_modes("klimit", q=0.5, annulus=AnnulusLabel(0), l_max=-1, m=1, k=1)
    with pytest.raises(DomainError):
        laurent_modes("nope", q=0.5, annulus=AnnulusLabel(0))
    with pytest.raises(AnnulusContainsPole):
        laurent_modes("klimit", q=0.999999, annulus=AnnulusLabel(0), m=1, k=1)
    with pytest.raises(QuadratureUnresolved):
        laurent_modes("klimit", q=0.5, annulus=AnnulusLabel(0), l_max=4,
                      quadrature_points=64, m=1, k=1)


# --- bracket rendering ----------------------------------------------------------


def test_format_bracket_matches_hand_assembled_string():
    tab = ModeBracketTable(
        annulus=AnnulusLabel(0),
        coefficients={-2: -0.25 + 0j, 0: 0j, 2: 0.25 + 0j},
        raw_coefficients={-2: -0.25 + 0j, 0: 0j, 2: 0.25 + 0j},
        which="klimit",
        params={},
    )
    out = format_mode_bracket(tab, 1, -1, 2)
    assert out["text"] == "{t[1], t[-1]} = (-0.25+0j) t[-1]*t[1] + (0.25+0j) t[3]*t[-3]"
    assert [t["l"] for t in out["terms"]] == [-2, 2]


def test_format_bracket_zero_and_cancellation():
    zero = ModeBracketTable(
        annulus=AnnulusLabel(0),
        coefficients={-1: 0j, 0: 0j, 1: 0j},
        raw_coefficients={-1: 0j, 0: 0j, 1: 0j},
        which="klimit",
        params={},
    )
    assert format_mode_bracket(zero, 3, 1, 1)["text"] == "{t[3], t[1]} = 0"

    anti = ModeBracketTable(
        annulus=AnnulusLabel(0),
        coefficients={-2: -0.5 + 0j, 2: 0.5 + 0j},
        raw_coefficients={-2: -0.5 + 0j, 2: 0.5 + 0j},
        which="klimit",
        params={},
    )
    out = format_mode_bracket(anti, 2, 2, 2)
    assert out["text"] == "{t[2], t[2]} = 0"
    assert out["cancelled_pairs"] == [[-2, 2]]


def test_format_bracket_suppresses_tiny_coefficients():
    tab = ModeBracketTable(
        annulus=AnnulusLabel(0),
        coefficients={-2: -1e-15 + 0j, 2: 1e-15 + 0j},
        raw_coefficients={-2: -1e-15 + 0j, 2: 1e-15 + 0j},
        which="klimit",
        params={},
    )
    assert format_mode_bracket(tab, 1, -1, 2)["terms"] == []
