"""Acceptance suite: every criterion the package commits to, with its
tolerance pinned, one test per criterion, one printed status line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs). The full module completes in well under two minutes.
"""

import json
import math
from pathlib import Path

import pytest

from ellex.cli import main as cli_main
from ellex.report import VerificationReport
from ellex.suites import VerifyConfig, run_suites

CFG = VerifyConfig(seed=7)

_reports: dict[str, VerificationReport] = {}


def suite(name: str) -> VerificationReport:
    if name not in _reports:
        _reports[name] = run_suites([name], CFG)
    return _reports[name]


def _conclude(criterion: str, report_or_flag, detail: str = "") -> None:
    if isinstance(report_or_flag, VerificationReport):
        ok = report_or_flag.aggregate_pass
        detail = detail or f"max_err={report_or_flag.max_error:.3e}"
    else:
        ok = bool(report_or_flag)
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_c01_theta_identity_suite():
    # quasi-periodicity, inversion and the integer shift law, rel <= 1e-10,
    # 100 random points with |a| <= 0.9 and 0.1 <= |x| <= 10
    rep = suite("theta")
    assert {c.check_id for c in rep.checks} == {
        "theta-quasiperiodicity",
        "theta-inversion",
        "theta-shift-law",
    }
    for c in rep.checks:
        assert c.tolerance == 1e-10
        assert c.params["count"] == 100
    _conclude("1 (theta identities)", rep)


def test_c02_tau_dual_representation():
    # theta-quotient vs product form on 50 points, rel <= 1e-11
    rep = suite("tau-dual")
    (check,) = rep.checks
    assert check.tolerance == 1e-11
    assert check.params["count"] == 50
    _conclude("2 (tau dual representation)", rep)


def test_c03_rmatrix_identities():
    # crossing and nome-shift residuals <= 1e-9 on 50 points with
    # |p|, |q| <= 0.7; Yang-Baxter residual <= 1e-9 at 20 pairs
    rep = suite("rmatrix")
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["crossing-symmetry"].params["count"] == 50
    assert by_id["nome-shift-covariance"].params["count"] == 50
    assert by_id["yang-baxter"].params["count"] == 20
    for c in rep.checks:
        assert c.tolerance == 1e-9
    _conclude("3 (R-matrix crossing, nome shift, Yang-Baxter)", rep)


def test_c04_f_closed_vs_iterated():
    # closed F(m, x) vs the iterated shift-factor product, rel <= 1e-10,
    # m in {-3..3} \ {0} with 20 x-points each
    rep = suite("f-two-path")
    two_path = [c for c in rep.checks if c.check_id.startswith("f-two-path")]
    assert len(two_path) == 6
    for c in two_path:
        assert c.tolerance == 1e-10
        assert c.params["count"] == 20
    _conclude("4 (F two-path)", rep)


def test_c05_y_closed_vs_ratio():
    # closed Y vs F(m, q^c x)/F(m, -p^(1/2) x), rel <= 1e-9
    rep = suite("y-two-path")
    assert len(rep.checks) == 6
    for c in rep.checks:
        assert c.tolerance == 1e-9
    _conclude("5 (Y two-path)", rep)


def test_c06_feigin_frenkel_identities():
    # |Y(x q^2) - Y(x)| and |Y(x q) - Y(1/x)| <= 1e-10 max(1, |Y|), 50-point grids
    rep = suite("feigin-frenkel")
    for c in rep.checks:
        assert c.tolerance == 1e-10
        assert c.params["count"] == 50
    _conclude("6 (Feigin-Frenkel identities)", rep)


def test_c07_commuting_points():
    # exact p = q^(2k): |F - 1| <= 1e-10 for k in {+-1, +-3}; the even closed
    # form for k in {+-2}; |Y - 1| <= 1e-10 at every tested k
    rep = suite("commuting-points")
    ids = {c.check_id for c in rep.checks}
    for k in ("+1", "+3", "-1", "-3"):
        assert f"f-equals-one(k={k})" in ids
        assert f"y-equals-one(k={k})" in ids
    for k in ("+2", "-2"):
        assert f"f-even-closed-form(k={k})" in ids
        assert f"y-equals-one(k={k})" in ids
    for c in rep.checks:
        assert c.tolerance == 1e-10
    _conclude("7 (commuting points p = q^(2k))", rep)


def test_c08_p_periodicity():
    # F (and Y) invariant under p -> p q^4 while |p q^4| < 1, rel <= 1e-10
    rep = suite("p-periodicity")
    for c in rep.checks:
        assert c.tolerance == 1e-10
        assert c.params["count"] == 20
    _conclude("8 (p -> p q^4 periodicity)", rep)


def test_c09_beta_limit_first_order():
    # with p = q^(4k/(2-beta)): |ln Y / beta - structure| first order in beta;
    # error ratio between beta = 1e-2 and 1e-3 within [5, 20]
    rep = suite("beta-limit")
    assert len(rep.checks) == 4
    for c in rep.checks:
        ratio = c.info["worst_point"]["error_ratio"]
        assert 5.0 <= ratio <= 20.0, f"{c.check_id}: ratio {ratio}"
        assert c.tolerance == pytest.approx(math.log10(2.0))
    _conclude("9 (beta-limit convergence)", rep)


def test_c10_center_series_coincidence():
    # the central bracket equals 2 ln q times the k-labeled series g, with no
    # fitted constant, rel <= 1e-8 on 50-point grids
    rep = suite("coincidence")
    for c in rep.checks:
        assert c.tolerance == 1e-8
        assert c.params["count"] == 50
    _conclude("10 (central bracket coincidence)", rep)


def test_c11_mode_brackets():
    # contour g_l vs analytic expansions <= 1e-8; antisymmetry <= 1e-10,
    # checked only on the mirror pair raw_0[l] = -raw_1[-l] (raw coefficients
    # relate across mirror annuli); residue bookkeeping across pole circles <= 1e-8
    rep = suite("mode-brackets")
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["laurent-geometric-expansion"].tolerance == 1e-8
    assert by_id["laurent-antisymmetry"].tolerance == 1e-10
    assert by_id["laurent-residue-step"].tolerance == 1e-8
    _conclude("11 (mode structure constants)", rep)


# each seed-7 check's point count and worst residual, recorded from the
# report; a change may keep or lower a residual, never raise it
SEED7_CHECKS = Path(__file__).parent / "data" / "seed7_checks.json"


def test_c12_determinism_byte_identical(tmp_path, capsys):
    # two runs of `verify --suite all` with identical config produce
    # byte-identical JSON reports, with the pinned checks, counts and
    # precision
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for path in paths:
        code = cli_main(
            ["verify", "--suite", "all", "--seed", "7", "--format", "json",
             "--output", str(path)]
        )
        capsys.readouterr()
        assert code == 0
    b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
    payload = json.loads(b1)
    assert payload["aggregate_pass"] is True
    pinned = json.loads(SEED7_CHECKS.read_text())
    got = {c["check_id"]: c for c in payload["checks"]}
    assert list(got) == list(pinned)
    for check_id, pin in pinned.items():
        assert got[check_id]["params"].get("count") == pin["count"], check_id
        assert got[check_id]["max_abs_error"] <= pin["max_abs_error"], check_id
    _conclude("12 (byte-identical reports)", b1 == b2, f"{len(b1)} bytes each")
