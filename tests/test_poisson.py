"""Poisson-limit tests: structure-function series against brute-force
partial sums, the central bracket against finite differences and the
series, the finite-step limit, and contour-extracted mode coefficients
against analytic expansions and residues."""

import cmath
import math
import random

import pytest
from test_qseries import SERIES_POLICIES, series_outcome, series_point

from ellex import cli, poisson, qseries, suites
from ellex.elliptic import NomeParams
from ellex.errors import (
    AnnulusContainsPole,
    DomainError,
    NearSingularity,
    NonConvergentBase,
    QuadratureUnresolved,
    TruncationExceeded,
)
from ellex.exchange import LevelParams, exchange_Y
from ellex.poisson import (
    AnnulusLabel,
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


def g_stepwise(x, q, policy):
    """poisson_series_g by the loop that tests its stop rule after every
    term, checks and messages included.  The series with its test-free
    leading terms must equal it bit for bit, and raise where it raises."""
    xv = qseries._nonzero(x, "x")
    qv = qseries._in_disk(q, "q")
    a = qseries._square(xv, "x^2")
    b = 1.0 / a
    if qseries.near_theta_zero(qv * qv, a, qseries._ZERO_RTOL):
        raise NearSingularity(
            f"x = {xv!r} is within {qseries._ZERO_RTOL:g} of a pole x^2 = q^(2j)"
        )
    q2 = qv * qv
    q4 = q2 * q2
    total = a / (1.0 - a) - b / (1.0 - b)
    t = 1.0 + 0j
    mag = abs(a) + abs(b)
    for _ in range(policy.max_terms):
        total += (
            -2.0 * a * t / (1.0 - a * t)
            + 2.0 * a * t * q2 / (1.0 - a * t * q2)
            + 2.0 * b * t / (1.0 - b * t)
            - 2.0 * b * t * q2 / (1.0 - b * t * q2)
        )
        t *= q4
        if (
            abs(a * t) < 0.5
            and abs(b * t) < 0.5
            and 8.0 * mag * abs(t) / (1.0 - abs(q4)) < policy.tail_tol
        ):
            return total
    raise TruncationExceeded(
        f"structure-function series did not meet tail {policy.tail_tol:g} "
        f"within {policy.max_terms} terms"
    )


def test_series_equals_the_stepwise_loop():
    # bases and arguments of every shape under each policy, a tenth of the
    # arguments within relative 1e-12..1e-6 of a pole x^2 = q^(2j)
    rng = random.Random(21)
    seen = set()
    for i in range(20000):
        q = series_point(rng, "base")
        x = series_point(rng, "argument")
        if rng.random() < 0.1 and isinstance(q, complex) and 1e-3 < abs(q) < 1.0:
            x = q ** rng.randint(-6, 6) * (1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12, -6))
        policy = SERIES_POLICIES[i % len(SERIES_POLICIES)]
        want = series_outcome(g_stepwise, x, q, policy)
        assert series_outcome(poisson_series_g, x, q, policy) == want, (x, q, policy)
        seen.add(want[0] if isinstance(want, tuple) else str)
    assert seen >= {str, TruncationExceeded, NearSingularity, DomainError, NonConvergentBase}


@pytest.mark.parametrize("tail_tol", [0.5, 1e-6, 1e-15])
def test_series_equals_the_stepwise_loop_at_the_stop_boundary(tail_tol):
    # |x| puts 8 (|x^2| + |x^-2|) |t| / (1 - |q^4|) within a few ulps of
    # tail_tol, t = q^(4n) formed by repeated multiplication as both loops
    # form it, where the logarithmic estimate of the term count can be one
    # off either way; x and 1/x share that bound
    policy = qseries.TruncationPolicy(512, tail_tol)
    for mag in (0.3, 0.55, 0.7, 0.8, 0.9, 0.95):
        q = mag * cmath.exp(0.6j)
        q4 = (q * q) * (q * q)
        t = 1.0 + 0j
        for n in range(1, 200):
            t *= q4
            if abs(t) < 1e-280:
                break
            c = tail_tol * (1.0 - abs(q4)) / abs(t) / 8.0  # |x^2| + |x^-2|
            if n % 5 != 1 or not 2.0 < c < 1e300:
                continue
            xmag = math.sqrt(0.5 * (c + math.sqrt(c * c - 4.0)))
            for ulps in range(-3, 4):
                x = xmag * (1.0 + ulps * 2.0**-52) * cmath.exp(-2.1j)
                for arg in (x, 1.0 / x):
                    want = series_outcome(g_stepwise, arg, q, policy)
                    assert series_outcome(poisson_series_g, arg, q, policy) == want, (arg, q)


@pytest.mark.parametrize(
    "x, returns",
    [(1.1, True), (1e150j, True), (1e-150, True), (1.3e154, False), (1.1e-154, False)],
)
@pytest.mark.parametrize("q", [1e-100, 1e-90j, -3e-82])
def test_series_with_an_underflowed_q4_equals_the_stepwise_loop(x, returns, q):
    # q^4 underflows to 0 and q^2 does not: the reference returns after one
    # term, or, where 8 (|x^2| + |x^-2|) overflows, runs out of terms
    for policy in SERIES_POLICIES:
        want = series_outcome(g_stepwise, x, q, policy)
        assert series_outcome(poisson_series_g, x, q, policy) == want, policy
        assert isinstance(want, str) == returns


def test_series_returns_where_its_scale_over_one_less_q4_overflows():
    # 8 (|x^2| + |x^-2|) is finite and near the largest float, so dividing
    # it by 1 - |q^4| before the power would overflow
    x = 1.390000096824062e-154 - 1.650392362939385e-154j
    q = -0.6814487473270816 - 0.0013672633816457895j
    policy = qseries.TruncationPolicy(512, 0.5)
    want = series_outcome(g_stepwise, x, q, policy)
    assert isinstance(want, str)
    assert series_outcome(poisson_series_g, x, q, policy) == want


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


@pytest.mark.parametrize("q", [0.45, 0.7, -0.5, 0.3 * cmath.exp(0.4j)])
def test_center_structure_matches_series_functionally(q):
    # no fitted constant: the central bracket is 2 ln q times g
    for x in (0.75, 1.1 + 0.2j, 1.37, 1.8, 0.85 - 0.4j):
        lhs = poisson_structure_center(x, q)
        rhs = 2 * cmath.log(q) * poisson_series_g(x, q)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


@pytest.mark.parametrize("scale", [-1.0, 1.0 + 1e-6])
def test_coincidence_suite_fails_on_a_scaled_series(monkeypatch, scale):
    # the suite fixes the constant at 2 ln q, so a series off by any constant
    # factor fails it; a constant fitted at one point would absorb the factor
    def scaled(x, q, policy):
        return scale * poisson_series_g(x, q, policy)

    monkeypatch.setattr(suites, "poisson_series_g", scaled)
    report = suites.run_suites(["coincidence"], suites.VerifyConfig(seed=7))
    assert report.checks and not any(c.passed for c in report.checks)


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


@pytest.mark.parametrize(
    "betas, message",
    [
        ((0.0, 1e-2), r"^every beta must lie in \(0, 0.1\], got \[0.01, 0.0\]$"),
        ((0.2, 1e-2), r"^every beta must lie in \(0, 0.1\], got \[0.2, 0.01\]$"),
        ((1e-2, 1e-2), "two distinct betas"),
    ],
)
def test_beta_ladder_refuses_bad_steps(betas, message):
    with pytest.raises(DomainError, match=message):
        beta_limit_check(1, 1, 0.5, 1.4, betas)


@pytest.mark.parametrize(
    "m,k,x", [(1, 1, 1.4), (1, 2, 1.4), (2, 1, 1.3), (-1, 1, 1.25), (1, -1, 1.4)]
)
def test_beta_limit_first_order_convergence(m, k, x):
    # k < 0 puts |p| = |q|^(4k/(2 - beta)) above 1, which Y accepts
    defect, info = beta_limit_check(m, k, 0.5, x)
    coarse, fine = info["table"]
    assert (coarse["beta"], fine["beta"]) == (1e-2, 1e-3)
    assert defect <= math.log10(2.0)
    assert 5.0 <= coarse["abs_error"] / fine["abs_error"] <= 20.0
    assert fine["abs_error"] < coarse["abs_error"]


def test_beta_ladder_nome_solves_the_step():
    # at each step q^(2k) = p^(1 - beta/2), so ln(Y)/beta is Y at that p
    q, beta = 0.5, 1e-2
    _, info = beta_limit_check(1, 1, q, 1.4, (0.1, beta))
    p = cmath.exp(4.0 / (2.0 - beta) * cmath.log(q))
    assert p ** (1 - beta / 2) == pytest.approx(q**2, rel=1e-12)
    y = exchange_Y(LevelParams(1, NomeParams(p, q)), 1.4)
    assert info["table"][1]["lnY_over_beta"] == cmath.log(y) / beta


def test_beta_ladder_two_finest_steps_decide():
    defect, info = beta_limit_check(1, 1, 0.5, 1.4, (1e-3, 0.1, 1e-2 / 3))
    assert set(info) == {"target", "table", "order"}
    assert [row["beta"] for row in info["table"]] == [0.1, 1e-2 / 3, 1e-3]
    _, mid, fine = info["table"]
    order = math.log10(mid["abs_error"] / fine["abs_error"]) / math.log10((1e-2 / 3) / 1e-3)
    assert (info["order"], defect) == (order, abs(order - 1.0))
    assert defect <= math.log10(2.0)
    # the coarsest step only bounds the finest error; it does not move the order
    assert beta_limit_check(1, 1, 0.5, 1.4, (1e-2 / 3, 1e-3)) == (defect, {
        **info, "table": info["table"][1:]
    })


def test_beta_ladder_collapses_duplicate_steps():
    defect, info = beta_limit_check(1, 1, 0.5, 1.4, (1e-2, 1e-3, 1e-2, 1e-3))
    assert [row["beta"] for row in info["table"]] == [1e-2, 1e-3]
    assert (defect, info) == beta_limit_check(1, 1, 0.5, 1.4, (1e-2, 1e-3))


def test_beta_ladder_with_an_exactly_zero_finest_error_has_infinite_defect(monkeypatch):
    # ln(Y)/beta lands exactly on the zero target at the finest step only:
    # no order can be read from a zero error, so the ladder does not pass
    values = iter([2.0, 1.0])
    monkeypatch.setattr(poisson, "exchange_Y", lambda level, x, policy: next(values))
    monkeypatch.setattr(poisson, "poisson_structure", lambda *args: 0j)
    defect, info = beta_limit_check(1, 1, 0.5, 1.4, (1e-2, 1e-3))
    assert [row["abs_error"] for row in info["table"]] == [math.log(2.0) / 1e-2, 0.0]
    assert defect == math.inf and math.isnan(info["order"])


def test_beta_ladder_whose_error_does_not_fall_has_infinite_defect(monkeypatch):
    # Y = 1 against a zero target leaves every step exactly 0 apart: an error
    # that does not fall is no convergence
    monkeypatch.setattr(poisson, "exchange_Y", lambda level, x, policy: 1.0)
    monkeypatch.setattr(poisson, "poisson_structure", lambda *args: 0j)
    for betas in ((1e-2, 1e-3), (0.1, 1e-2, 1e-3)):
        defect, info = beta_limit_check(1, 1, 0.5, 1.4, betas)
        assert {row["abs_error"] for row in info["table"]} == {0.0}
        assert defect == math.inf


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


@pytest.mark.parametrize(
    "which, expected",
    [("klimit", {"_series_g_core": 1}), ("center", {"_log_deriv_core": 4})],
)
def test_a_modes_table_calls_no_public_layer_and_its_cores_once_per_node(
    monkeypatch, capsys, which, expected
):
    # one integrand per table does the q-level work, so no node goes through
    # a public structure function; each runs g's core once, or the four
    # log-derivative cores of the center; --nodes N samples 2N nodes
    calls = dict.fromkeys(("poisson_structure", "poisson_structure_center", "poisson_series_g",
                           "log_deriv_theta", "_series_g_core", "_log_deriv_core"), 0)
    for name in calls:
        real = getattr(poisson, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(poisson, name, counted)
    nodes = 2 * 128
    argv = ["modes", "--which", which, "--q", "0.5", "--nodes", "128", "--lmax", "2", "--m", "1",
            "--k", "1"]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert f"{nodes} nodes" in capsys.readouterr().out
    assert calls == {name: expected.get(name, 0) * nodes for name in calls}


@pytest.mark.parametrize("which", ["klimit", "center"])
def test_a_modes_table_forms_its_base_once(monkeypatch, which):
    # the nodes are sampled in one point scope: g's and the center's four
    # log-derivatives all read one base q^4
    built = []

    class Counted(qseries._Base):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(qseries, "_Base", Counted)
    laurent_modes(which, q=0.5, annulus=AnnulusLabel(0), l_max=2, quadrature_points=128, m=1, k=1)
    assert built == [0.0625]


def modes_by_public_calls(which, q, annulus, l_max, quadrature_points, m, k, policy):
    """laurent_modes as it sampled before its per-table integrand: the same
    checks, every node through the public structure function in one point
    scope, then the same transform of the even and of the odd nodes."""
    qv = qseries._in_disk(q, "q")
    kind = {"klimit": "klimit", "center": "center"}[which]
    if int(l_max) != l_max or l_max < 0:
        raise DomainError(f"l_max must be a non-negative integer, got {l_max!r}")
    if quadrature_points < 4 * (l_max + 1):
        raise DomainError(
            f"quadrature_points = {quadrature_points} < 4 (l_max + 1) = {4 * (l_max + 1)}"
        )
    r = annulus.radius(qv)
    if qseries.near_theta_zero(abs(qv), r, 1e-6):
        raise AnnulusContainsPole(f"radius {r:.8g} within relative 1e-6 of a circle |q|^j")
    if not l_max * abs(math.log(r)) < 700.0:
        raise DomainError(f"r^l for |l| <= {l_max} out of floating-point range at radius {r:.8g}")

    def f(z):
        if kind == "klimit":
            return poisson_structure(m, k, z, qv, policy)
        return poisson_structure_center(z, qv, policy)

    nodes = 2 * quadrature_points
    with qseries.point_scope():
        vals = [f(r * cmath.exp(2j * math.pi * j / nodes)) for j in range(nodes)]
    even, odd = poisson._fft(vals[0::2]), poisson._fft(vals[1::2])
    ls = range(-l_max, l_max + 1)
    coarse = {l: even[l] / (quadrature_points * r**l) for l in ls}
    fine = {
        l: (even[l] + cmath.exp(-1j * math.pi * l / quadrature_points) * odd[l]) / (nodes * r**l)
        for l in ls
    }
    drift = max(abs(coarse[l] - fine[l]) for l in fine)
    if drift > 1e-9:
        raise QuadratureUnresolved(
            f"doubling {quadrature_points} nodes moved a coefficient by {drift:.3e}"
        )
    return ModeBracketTable(
        annulus=annulus,
        coefficients={l: 0.5 * (fine[l] - fine[-l]) for l in fine},
        raw_coefficients=fine,
        which=kind,
        params={"q": qv, "m": m, "k": k, "radius": r, "nodes": nodes, "drift": drift},
    )


def modes_draws(count):
    """Seeded tables: klimit at m, k in +-1..3 and the center; real,
    negative and complex q with log|q| uniform over |q| in [0.02, 0.98] on
    annuli -3..4, and every fifth table at a q whose q^4 underflows, at
    1 - |q| in [1e-9, 1e-3], or on a radius between 1e-200 and 1e200, whose
    r^2 may leave (1e-100, 1e100) or the floating-point range: where every
    node keeps the public function's checks, and across the edge of that."""
    rng = random.Random(29)
    levels = (-3, -2, -1, 1, 2, 3)
    for i in range(count):
        which = rng.choice(("klimit", "center"))
        m, k = (rng.choice(levels), rng.choice(levels)) if which == "klimit" else (None, None)
        modulus, annulus = math.exp(rng.uniform(-3.9, -0.02)), rng.randint(-3, 4)
        if i % 5 == 4:
            small, decades = rng.uniform(0.02, 0.1), rng.choice((-1, 1)) * rng.uniform(40, 200)
            modulus, annulus = rng.choice(
                [(10 ** rng.uniform(-160, -82), rng.randint(-1, 2)),
                 (10 ** rng.uniform(-100, -82), 1),  # r^2 = |q| in range
                 (1.0 - 10 ** rng.uniform(-9, -3), rng.randint(-3, 4)),
                 (small, round(decades / -math.log10(small) + 0.5))]
            )
        q = rng.choice((modulus, -modulus, modulus * cmath.exp(1j * rng.uniform(-3.1, 3.1))))
        policy = qseries.TruncationPolicy(rng.choice((1, 2, 8, 512, 512, 512)),
                                          rng.choice((0.5, 1e-6, 1e-15)))
        l_max, points = rng.randint(0, 3), rng.choice((16, 32, 64))
        yield which, q, AnnulusLabel(annulus), l_max, points, m, k, policy


def laurent_modes_by_position(which, q, annulus, l_max, quadrature_points, m, k, policy):
    return laurent_modes(which, q=q, annulus=annulus, l_max=l_max,
                         quadrature_points=quadrature_points, m=m, k=k, policy=policy)


def test_modes_equal_the_public_per_node_loop():
    seen = set()
    for args in modes_draws(500):
        want = series_outcome(modes_by_public_calls, *args)
        assert series_outcome(laurent_modes_by_position, *args) == want, args
        seen.add(want[0] if isinstance(want, tuple) else str)
    assert seen == {str, AnnulusContainsPole, DomainError, NonConvergentBase,
                    QuadratureUnresolved, TruncationExceeded}


@pytest.mark.parametrize("lmax", [0, 5])
def test_modes_keys_are_minus_lmax_to_lmax(lmax):
    tab = klimit_table(0, lmax=lmax)
    assert list(tab.raw_coefficients) == list(range(-lmax, lmax + 1))
    assert list(tab.coefficients) == list(range(-lmax, lmax + 1))


def test_modes_structure_constants_antisymmetric():
    tab = klimit_table(0)
    for l, g in tab.coefficients.items():
        assert g == -tab.coefficients[-l]
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


def test_modes_count_per_node_where_the_circle_straddles_a_count():
    # bisect q to where the structure function's term count on annulus 0
    # steps: the circle's scales then straddle the step, so the nodes count
    # their terms one by one, and the samples stay the public function's
    policy = qseries.TruncationPolicy()

    def count(q):
        r2 = AnnulusLabel(0).radius(q) ** 2
        base = qseries._base(q**4, policy, "q^4")
        return len(poisson._series_powers(8.0 * (r2 + 1.0 / r2), base, "structure-function"))

    lo, hi = 0.3, 0.31
    assert count(lo) != count(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if count(mid) == count(lo) else (lo, mid)
    shared = []
    real = poisson._circle_powers

    def spied(*args):
        shared.append(real(*args))
        return shared[-1]

    args = ("klimit", lo, AnnulusLabel(0), 3, 64, 1, 1, policy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poisson, "_circle_powers", spied)
        got = series_outcome(laurent_modes_by_position, *args)
    assert shared == [None]
    assert got == series_outcome(modes_by_public_calls, *args)


U = 2.0**-53


@pytest.mark.parametrize("n", [1 << p for p in range(11)] + [3, 5, 6, 7, 12, 36, 100, 255, 1000])
def test_fft_matches_numpy(n):
    # relative 2-norm error within 4 u log2 of the length transformed: n at
    # a power of two, else Bluestein's convolution length
    np = pytest.importorskip("numpy")
    length = n if n & (n - 1) == 0 else 1 << (2 * n - 2).bit_length()
    rng = random.Random(n)
    for _ in range(5):
        values = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
        got, want = np.array(poisson._fft(values)), np.fft.fft(values)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 4 * U * max(1, math.log2(length)), err
