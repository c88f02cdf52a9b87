"""Elliptic-parametrization tests against independent oracles: plain AGM
loops written here, and mpmath's Jacobi functions through ``mp_oracle``.
K, K' and snh are held to their claims in ``test_qseries_oracle.py``."""

import cmath
import math
import random
import re

import pytest

from ellex.elliptic import (
    EllipticParams,
    NomeParams,
    baxter_entries,
    complete_K,
    jacobi_snh,
    modulus_from_nome,
    param_map,
    snh_core,
)
from ellex import qseries
from ellex.errors import DomainError, NearSingularity, NonConvergentBase, TruncationExceeded
from ellex.qseries import DEFAULT_POLICY, TruncationPolicy, theta
from ellex.rmatrix import r_plus


def agm_oracle(k, iterations=20):
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(iterations):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def test_complete_K_degenerate_limit():
    assert complete_K(1e-10) == pytest.approx(math.pi / 2, abs=1e-12)


def test_complete_K_self_dual_point():
    k = 1.0 / math.sqrt(2.0)
    kp = math.sqrt(1.0 - k * k)
    assert complete_K(k) == pytest.approx(complete_K(kp), rel=1e-12)


def test_complete_K_agm_oracle():
    for k in (0.1, 0.5, 0.8, 0.95):
        assert complete_K(k) == pytest.approx(agm_oracle(k), rel=1e-14)


@pytest.mark.parametrize("k", [0.95, 0.999])
def test_complete_K_stops_once_iterates_agree(k, monkeypatch):
    # one sqrt for k' and one per AGM step; the AGM needs 6 steps here
    calls = []
    sqrt = math.sqrt
    monkeypatch.setattr(math, "sqrt", lambda v: calls.append(v) or sqrt(v))
    complete_K(k)
    assert len(calls) <= 8


def test_complete_K_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            complete_K(bad)


def test_snh_zero_and_oddness():
    assert jacobi_snh(0.0, 0.6) == 0.0
    for u in (0.1 + 0.2 * i for i in range(8)):
        assert jacobi_snh(-u, 0.6) == pytest.approx(-jacobi_snh(u, 0.6), rel=1e-12)


def test_snh_pole_detection():
    k = 0.6
    Kp = complete_K(math.sqrt(1.0 - k * k))
    with pytest.raises(NearSingularity):
        jacobi_snh(Kp, k)


def _snh_core_two_thetas(y, p, policy):
    # snh_core as two public theta calls, each forming its own (p^2; p^2)
    return y * theta(p * p, 1.0 / (y * y), policy) / theta(p * p, p / (y * y), policy)


def test_snh_core_matches_two_theta_form():
    # bit for bit below the crossover
    rng = random.Random(5)
    short = TruncationPolicy(max_terms=8)
    for i in range(300):
        p = rng.uniform(0.01, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        y = math.exp(rng.uniform(math.log(0.03), math.log(30.0))) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi)
        )
        policy = short if i % 4 == 0 else DEFAULT_POLICY
        try:
            ref = _snh_core_two_thetas(y, p, policy)
        except TruncationExceeded as exc:
            with pytest.raises(TruncationExceeded, match=re.escape(str(exc))):
                snh_core(y, p, policy)
            continue
        try:
            got = snh_core(y, p, policy)
        except NearSingularity:
            continue
        if abs(p * p) < qseries._CROSSOVER:
            assert repr(got) == repr(ref)
        else:  # the dual-nome quotient sums its exponents before one exponential
            assert abs(got - ref) <= 1e-14 * abs(ref)


def test_snh_core_rejects_what_theta_rejects():
    # its theta base is p^2, checked under that name
    with pytest.raises(NonConvergentBase, match=r"^\|p\^2\| must lie in \(0, 1\)"):
        snh_core(1.0, 1.2)
    with pytest.raises(DomainError, match=r"^y\^2 must be finite"):
        snh_core(1e200, 0.5)
    # y and y^2 are checked before the base, so an invalid y^2 is named first
    with pytest.raises(DomainError, match=r"^y\^2 must be finite"):
        snh_core(1e200, 1.2)


def test_param_map_trivial_points():
    ep = EllipticParams(0.5, 1.2, 0.0)
    _nome, x = param_map(ep)
    assert x == pytest.approx(1.0)

    ep = EllipticParams(1.0 / math.sqrt(2.0), 0.7, 0.0)
    nome, _ = param_map(ep)
    assert nome.p == pytest.approx(math.exp(-math.pi), rel=1e-12)


def test_param_map_direct_formula():
    ep = EllipticParams(0.5, 1.2, 0.3)
    nome, x = param_map(ep)
    K = complete_K(0.5)
    Kp = complete_K(math.sqrt(0.75))
    assert nome.p == pytest.approx(math.exp(-math.pi * Kp / K), rel=1e-13)
    assert nome.q == pytest.approx(-math.exp(-math.pi * 1.2 / (2 * K)), rel=1e-13)
    assert x == pytest.approx(math.exp(math.pi * 0.3 / (2 * K)), rel=1e-13)
    assert nome.q.real < 0  # negative real branch of this parametrization


def test_nome_round_trip():
    ep = EllipticParams(0.6, 1.0)
    assert abs(modulus_from_nome(ep.nome) - 0.6) < 1e-12
    # and |p| = exp(-pi K'/K) by construction
    assert ep.nome == pytest.approx(math.exp(-math.pi * ep.K_prime / ep.K), rel=1e-12)


def test_baxter_entries_degenerate_points():
    ep = EllipticParams(0.6, 1.0, 0.0)
    a, b, c, d = baxter_entries(ep)
    assert (a, b, c, d) == (1.0, 0.0, 1.0, 0.0)

    ep = EllipticParams(0.6, 1.0, 1.0)  # u = lambda
    a, b, c, d = baxter_entries(ep)
    assert abs(a) < 1e-12 and abs(d) < 1e-12
    assert b == pytest.approx(1.0)


def test_baxter_entries_against_sn_oracle():
    pytest.importorskip("mpmath")
    import mp_oracle

    ep = EllipticParams(0.6, 1.0, 0.35)
    a, b, _c, d = baxter_entries(ep)
    sl = mp_oracle.snh(ep.lam, ep.modulus)
    slu = mp_oracle.snh(ep.lam - ep.u, ep.modulus)
    su = mp_oracle.snh(ep.u, ep.modulus)
    assert a == pytest.approx(slu / sl, rel=1e-10)
    assert b == pytest.approx(su / sl, rel=1e-10)
    assert d == pytest.approx(ep.modulus * slu * su, rel=1e-10)
    # snh addition consistency: a(u) snh(lambda) = snh(lambda - u)
    assert a * jacobi_snh(ep.lam, ep.modulus) == pytest.approx(
        jacobi_snh(ep.lam - ep.u, ep.modulus), rel=1e-10
    )


def test_nome_params_validation():
    with pytest.raises(NonConvergentBase):
        NomeParams(0.5, 1.1)
    # |p| >= 1 is a valid nome for the exchange functions; what uses p as a
    # product base rejects it there
    outside = NomeParams(1.5, 0.5)
    assert outside.p == 1.5
    with pytest.raises(NonConvergentBase, match=r"^\|p\|"):
        r_plus(1.1, outside)
    with pytest.raises(DomainError):
        NomeParams(0.0, 0.5)


def test_elliptic_params_validation():
    with pytest.raises(DomainError):
        EllipticParams(1.2, 1.0)
    with pytest.raises(DomainError):
        EllipticParams(0.5, -1.0)
