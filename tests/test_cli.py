"""CLI surface tests: flag parsing, exact symbolic parameters, output
formats, exit codes, and report determinism."""

import argparse
import cmath
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellex
from ellex import cli, qseries, suites
from ellex.cli import main
from ellex.errors import SamplingExhausted


# |q| = 1 - 1.1e-16 at a phase: |q^2| and |q^4| round to within a few ulps
# of 1
NEAR_UNIT_Q = "0.9553364891256059+0.2955202066613395j"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_y_prints_value_and_error(capsys):
    code, out, _ = run(
        capsys, "eval", "--fn", "Y", "--m", "1", "--p", "0.2", "--q", "0.45", "--x", "1.3"
    )
    assert code == 0
    assert "Y at x" in out and "change at a 100x tighter tail" in out


def test_eval_exact_symbolic_p_hits_commuting_point(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--fn", "F", "--m", "2", "--p", "q^2", "--q", "0.5", "--x", "1.1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    value = complex(payload["results"][0]["value"])
    assert abs(value - 1.0) < 1e-10  # p = q^2 is the k = 1 commuting point


def test_eval_negative_symbolic_exponent(capsys):
    code, out, _ = run(
        capsys,
        "eval", "--fn", "F", "--m", "1", "--p", "q^-2", "--q", "0.6", "--x", "1.3",
        "--format", "json",
    )
    assert code == 0
    value = complex(json.loads(out)["results"][0]["value"])
    assert abs(value - 1.0) < 1e-10


def test_eval_missing_param_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--fn", "F", "--m", "1", "--q", "0.5", "--x", "1.0")
    assert code == 2
    assert "needs --p" in err


def test_eval_domain_error_exit_code(capsys):
    code, _, err = run(
        capsys, "eval", "--fn", "theta", "--a", "1.5", "--x", "2.0"
    )
    assert code == 2
    assert "error:" in err


def test_eval_mu_outside_p_disk_names_p(capsys):
    # mu uses p as a product base; the error names p, not mu's theta base p^2
    code, out, err = run(
        capsys, "eval", "--fn", "mu", "--p", "q^-2", "--q", "0.5", "--x", "1.1"
    )
    assert code == 2 and out == ""
    assert err == "error: |p| must lie in (0, 1), got 4\n"


def test_verify_exchange_suite_accepts_p_outside_disk(capsys):
    # F uses p only inside theta arguments, as eval --fn F does
    code, out, _ = run(
        capsys, "verify", "--suite", "f-two-path", "--p", "q^-2", "--q", "0.5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["aggregate_pass"] is True


def test_malformed_flag_usage_exit(capsys):
    assert main(["eval", "--fn", "F", "--badflag"]) == 2


def test_env_var_overrides_tail_tol(capsys, monkeypatch):
    monkeypatch.setenv("ELLEX_DEFAULT_TOL", "1e-6")
    code, out, _ = run(
        capsys, "eval", "--fn", "theta", "--a", "0.4", "--x", "2.0", "--format", "json"
    )
    assert code == 0
    coarse = json.loads(out)["results"][0]["trunc_err"]
    monkeypatch.delenv("ELLEX_DEFAULT_TOL")
    code, out, _ = run(
        capsys, "eval", "--fn", "theta", "--a", "0.4", "--x", "2.0", "--format", "json"
    )
    fine = json.loads(out)["results"][0]["trunc_err"]
    assert coarse > fine


def test_verify_list_names_every_suite(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    for name in ("theta", "rmatrix", "feigin-frenkel", "commuting-points", "beta-limit"):
        assert name in out
    assert "theorem6" in out  # alias visible


def test_verify_single_suite_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "tau", "--format", "json", "--output", str(path)
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["aggregate_pass"] is True
    assert payload["checks"][0]["check_id"] == "tau-two-representations"
    assert payload["checks"][0]["max_abs_error"] <= payload["checks"][0]["tolerance"]
    assert "wall_time" not in json.dumps(payload)


def test_verify_alias_suite_runs(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem6", "--format", "text")
    assert code == 0
    assert "commuting-points" in out


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "suite, extra, check_id",
    [
        pytest.param("rmatrix", ("--p", "0.69"), "crossing-symmetry", id="rmatrix"),
        pytest.param("tau", (), "tau-two-representations", id="tau"),
    ],
)
def test_verify_rmatrix_gives_up_when_no_point_is_valid(capsys, suite, extra, check_id):
    # at q = 0.999 every candidate needs a product of more than max_terms
    # factors (kappa_inv's rows, tau's product form), so sampling can never
    # fill the grid; the capped retries end in a typed error, exit code 2
    code, _, err = run(
        capsys, "verify", "--suite", suite, *extra, "--q", "0.999", "--max-terms", "8"
    )
    assert code == 2
    assert check_id in err and "candidates" in err


@pytest.mark.parametrize(
    "suite", ["theorem6", "p-periodicity", "f-two-path", "y-two-path", "feigin-frenkel"]
)
def test_verify_theta_suites_pass_near_q_one_with_few_factors(capsys, suite):
    # their points need theta quotients alone, which the dual nome forms at
    # q^4 = 0.996 with a factor or two each
    code, _, err = run(capsys, "verify", "--suite", suite, "--q", "0.999", "--max-terms", "8")
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "suite", ["theorem6", "p-periodicity", "f-two-path", "y-two-path", "feigin-frenkel"]
)
@pytest.mark.parametrize("q", ["0.99999", "0.999999"])
def test_verify_theta_suites_give_up_past_the_dual_limit(capsys, suite, q):
    # |log q^4| is below qseries._DUAL_LEAST_LOG, where the dual nome's error
    # bound passes 1e-12 and its residuals passed the suites' 1e-10: the
    # product takes the thetas, every candidate needs more than max_terms
    # factors, and the run gives up rather than fail a true identity
    code, _, err = run(capsys, "verify", "--suite", suite, "--q", q)
    assert code == 2 and "candidates" in err


def test_verify_report_bytes_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "verify", "--suite", "theta", "--seed", "11",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_parallel_matches_serial(capsys, tmp_path):
    # whole suites run in the workers and merge in suite order, so the
    # checks are identical; only the echoed parallel degree differs
    outs = {}
    for degree in ("1", "2"):
        path = tmp_path / f"par{degree}.json"
        code, _, _ = run(
            capsys,
            "verify", "--suite", "all", "--seed", "7", "--parallel", degree,
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        outs[degree] = json.loads(path.read_text())
        outs[degree]["config"].pop("parallel")
    assert outs["1"] == outs["2"]


def test_verify_parallel_worker_error_matches_serial(capsys):
    # an error raised in a worker reaches the CLI as the serial run's error
    argv = ("verify", "--suite", "tau", "--suite", "theorem6", "--q", "0.999", "--max-terms", "8")
    results = [run(capsys, *argv, "--parallel", degree) for degree in ("1", "2")]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 2 and out == ""
    assert "tau-two-representations: only 0 of 50 points" in err


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_verify_parallel_pool_capped_at_usable_cpus(monkeypatch):
    import concurrent.futures

    from ellex.suites import VerifyConfig, run_suites

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "requested", [])
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    suites = ["theta", "tau", "p-periodicity"]
    wide = json.loads(run_suites(suites, VerifyConfig(parallel=10**6)).to_json_bytes())
    assert _InProcessPool.requested == ([min(cpus, len(suites))] if cpus > 1 else [])
    serial = json.loads(run_suites(suites, VerifyConfig()).to_json_bytes())
    assert wide["config"].pop("parallel") == 10**6
    serial["config"].pop("parallel")
    assert wide == serial
    run_suites(["tau"], VerifyConfig(parallel=2))  # one suite runs serially
    assert len(_InProcessPool.requested) == (1 if cpus > 1 else 0)


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tau", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "suite,check_id,max_abs_error,tolerance,pass,params"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "all"),
        ("limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4"),
        ("eval", "--fn", "K", "--modulus", "0.5"),
    ],
)
def test_every_csv_row_parses_to_the_width_of_its_header(capsys, argv):
    # check ids, params and ladders hold commas; the csv module must read
    # back every field, and a missing x is an empty field
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    if argv[0] == "eval":
        assert [row[header.index("x")] for row in rows] == [""]


@pytest.mark.parametrize("k", ["1", "-1"])  # k < 0 puts |p| above 1
def test_limit_command(capsys, tmp_path, k):
    path = tmp_path / "limit.json"
    code, out, _ = run(
        capsys,
        "limit", "--m", "1", "--k", k, "--q", "0.5", "--x", "1.4",
        "--betas", "1e-2,1e-3", "--format", "json", "--output", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    coarse, fine = payload["checks"][0]["info"]["table"]
    assert (coarse["beta"], fine["beta"]) == (1e-2, 1e-3)
    assert 5.0 <= coarse["abs_error"] / fine["abs_error"] <= 20.0
    assert "order over the two finest steps: " in out


def test_ladder_whose_error_does_not_fall_fails_limit_and_suite(capsys, monkeypatch, tmp_path):
    # both steps exactly on a zero target: the error does not fall, so the
    # ladder's defect is inf and both commands apply the one pass rule
    from ellex import poisson

    monkeypatch.setattr(poisson, "exchange_Y", lambda level, x, policy: 1.0)
    monkeypatch.setattr(poisson, "poisson_structure", lambda *args: 0j)
    code, out, _ = run(
        capsys, "limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4",
        "--betas", "1e-2,1e-3", "--format", "json",
    )
    (check,) = json.loads(out)["checks"]
    assert (code, check["max_abs_error"], check["pass"]) == (1, math.inf, False)
    path = tmp_path / "beta.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "beta-limit", "--format", "json", "--output", str(path)
    )
    report = json.loads(path.read_text())
    assert (code, report["aggregate_pass"]) == (1, False)
    assert [(c["max_abs_error"], c["pass"]) for c in report["checks"]] == [(math.inf, False)] * 4


@pytest.mark.parametrize(
    "suite, target, failing",
    [("beta-limit", "beta_limit_check", 2), ("mode-brackets", "laurent_modes", "center")],
)
def test_verify_fixed_case_error_exits_2_without_a_report(
    capsys, monkeypatch, tmp_path, suite, target, failing
):
    # a fixed case is never skipped: one case that raises ends the run, so
    # no report with fewer checks or a smaller count is written
    from ellex import suites
    from ellex.errors import TruncationExceeded

    real = getattr(suites, target)

    def truncated(*args, **kwargs):
        if args[0] == failing:
            raise TruncationExceeded("injected truncation failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(suites, target, truncated)
    path = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--format", "json", "--output", str(path)
    )
    assert (code, out, err) == (2, "", "error: injected truncation failure\n")
    assert not path.exists()


def _rejecting_table(rejects):
    """A table of one identity of three points whose sampler rejects the
    draws ``rejects(draw)`` names (draws count from 1) and records the
    ``index`` it is handed; each kept row's error is that index."""
    from ellex import suites

    seen = []

    def sample(rng, cfg, index):
        seen.append(index)
        rng.uniform()
        return None if rejects(len(seen)) else index

    def evaluate(cfg, index):
        return ((float(index), {"index": index}),)

    def table(cfg):
        return [suites.Identity(("alternate",), sample, evaluate, 10.0, 3, {})]

    return table, seen


def test_a_rejected_candidate_costs_a_try_but_no_index():
    from ellex import suites

    table, seen = _rejecting_table(lambda draw: draw % 2 == 1)
    report = suites._run_sampled("alternate", 0, table, suites.VerifyConfig())
    (check,) = report.checks
    assert check.params["count"] == 3
    assert check.max_abs_error == 2.0 and check.info["worst_point"] == {"index": 2}
    assert seen == [0, 0, 1, 1, 2, 2]


def test_a_sampler_that_always_rejects_exhausts_its_budget():
    from ellex import suites

    tries = suites._TRIES_PER_POINT * 3
    table, seen = _rejecting_table(lambda draw: True)
    message = f"alternate: only 0 of 3 points valid after {tries} candidates"
    with pytest.raises(SamplingExhausted, match=f"^{message}$"):
        suites._run_sampled("alternate", 0, table, suites.VerifyConfig())
    assert seen == [0] * tries


def test_per_check_times_split_each_identity_and_add_up(monkeypatch):
    # a fake clock that only the table build and the evaluations advance:
    # each identity's time is split evenly over its checks, the first
    # identity's includes the table build, and the times sum to the run's
    from ellex import suites

    clock = [100.0]
    monkeypatch.setattr(suites.time, "perf_counter", lambda: clock[0])

    def identity(checks, costs):
        def evaluate(cfg, cost):
            clock[0] += cost
            return ((0.0, {}),) * len(checks)

        return suites._fixed(checks, evaluate, 1.0, {}, costs)

    def table(cfg):
        clock[0] += 1.0
        return [identity(("a1", "a2"), (2.0, 3.0)), identity(("b1", "b2", "b3"), (1.5,))]

    report = suites._run_sampled("timed", 0, table, suites.VerifyConfig())
    times = [c.wall_time_s for c in report.checks]
    assert times == [3.0, 3.0, 0.5, 0.5, 0.5]
    assert sum(times) == clock[0] - 100.0
    assert "(3000.0 ms)" in report.to_text() and "(500.0 ms)" in report.to_text()


def test_every_suite_runs_through_the_one_check_loop():
    from ellex import suites

    for name, spec in suites.SUITES.items():
        assert isinstance(spec.runner, functools.partial), name
        assert spec.runner.func is suites._run_sampled, name
        assert spec.runner.args[0] == name


def test_modes_command_json(capsys):
    code, out, _ = run(
        capsys,
        "modes", "--which", "klimit", "--q", "0.5", "--m", "1", "--k", "1",
        "--annulus", "0", "--lmax", "4", "--pairs", "1:-1,2:2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    g2 = complex(payload["raw_coefficients"]["2"])
    assert g2.real == pytest.approx(2 * math.log(0.5) * 0.4, rel=1e-9)
    assert payload["brackets"][1]["text"] == "{t[2], t[2]} = 0"


def test_modes_csv_format(capsys):
    argv = ("modes", "--q", "0.5", "--m", "1", "--k", "1", "--lmax", "3")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "l,structure_constant,raw_coefficient"
    _, ref, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(ref)
    assert [int(r.split(",")[0]) for r in rows] == list(range(-3, 4))
    for row in rows:
        l, g, raw = row.split(",")
        assert complex(g) == complex(payload["structure_constants"][l])
        assert complex(raw) == complex(payload["raw_coefficients"][l])


def test_modes_accepts_spec_alias(capsys):
    code, out, _ = run(
        capsys,
        "modes", "--which", "theorem7", "--q", "0.5", "--m", "1", "--k", "1",
        "--annulus", "1", "--lmax", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["which"] == "klimit"


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (("verify", "--suite", "tau-dual", "--format", "json"), "--q", "-0.3+0.2j"),
        (("eval", "--fn", "tau", "--q", "0.45", "--format", "json"), "--x", "-1.1-0.2j"),
        (("eval", "--fn", "theta", "--x", "1.1", "--format", "json"), "--a", "-0.3+0.6j"),
        (
            ("eval", "--fn", "F", "--m", "1", "--q", "0.5", "--x", "1.1", "--format", "json"),
            "--p",
            "-0.2+0.1j",
        ),
    ],
)
def test_complex_value_with_leading_minus_after_flag(capsys, argv, flag, value):
    # argparse reads a value like -0.3+0.2j as a flag unless it is joined by "="
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 0, err
    ref_code, ref, _ = run(capsys, *argv, f"{flag}={value}")
    assert ref_code == 0 and out == ref


def test_eval_tiny_x_is_a_domain_error(capsys):
    # x^2 underflows to 0: a typed error with exit code 2, not a traceback
    code, out, err = run(capsys, "eval", "--fn", "tau", "--q", "0.5", "--x", "1e-200")
    assert code == 2
    assert out == "" and err == "error: x^2 must be nonzero\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--fn", "theta", "--a", "0.5", "--x", "1e100"),
         "(x; b)_inf overflows at x = (1e+100+0j), b = (0.5+0j)"),
        # every row product of kappa_inv is finite; their running products
        # overflow, which kappa_inv itself reports
        (("--fn", "kappa", "--p", "0.2", "--q", "0.5", "--x", "1e10"),
         "kappa_inv row products out of floating-point range at x2 = (1e+20+0j)"),
        # the same overflow was once reported as a vanished denominator
        (("--fn", "mu", "--p", "0.2", "--q", "0.5", "--x", "1e6"),
         "kappa_inv row products out of floating-point range at x2 = (1000000000000+0j)"),
        # e^(pi u / 2K) overflows math.exp
        (("--fn", "snh", "--u", "1e4", "--modulus", "0.5"),
         "snh argument e^(pi u / 2K) overflows at u = 10000.0"),
        # both parts are finite, the modulus is not
        (("--fn", "theta", "--a", "0.5", "--x=1.5e308+1.5e308j"),
         "|x| is out of floating-point range at x = (1.5e+308+1.5e+308j)"),
        # every step's theta quotient is finite and F's running product
        # overflows; F refuses it
        (("--fn", "F", "--m=-3", "--p", "0.02", "--q", "1e-73", "--x", "1e-70"),
         "F is not finite at x = (1e-70+0j), m = -3"),
    ],
)
def test_eval_overflow_is_a_domain_error(capsys, argv, message):
    # a typed error with exit code 2, not (nan+nanj) printed with exit code 0
    code, out, err = run(capsys, "eval", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


SUBNORMAL_SQUARE = "1/x^2 is out of floating-point range at x^2 = (1e-310+0j)"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (("eval", "--fn", "theta", "--a", "0.5", "--x", "1.1"), {"ELLEX_DEFAULT_TOL": "abc"},
         "cannot parse ELLEX_DEFAULT_TOL = 'abc' as a real number"),
        (("limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4", "--betas", "abc"), {},
         "cannot parse --betas entry = 'abc' as a real number"),
        (("limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4", "--betas", "1e-2,,1e-3"),
         {}, "cannot parse --betas entry = '' as a real number"),
        # the sampler takes no negative seed
        (("verify", "--suite", "theta", "--seed", "-1"), {},
         "--seed must be a non-negative integer, got -1"),
        # the radius underflows, and math.log(0) would raise
        (("modes", "--q", "0.5", "--m", "1", "--k", "1", "--annulus", "2000"), {},
         "radius of annulus 2000 out of floating-point range"),
        (("modes", "--q", "0.5", "--m", "1", "--k", "1", "--annulus", "-2000"), {},
         "radius of annulus -2000 out of floating-point range"),
        (("eval", "--fn", "F", "--m", "1", "--p", "q^-2", "--q", "0", "--x", "1.1"), {},
         "p = 'q^-2' is out of floating-point range"),
        # the radius 1e150 is in range, but r^-8 underflows to 0
        (("modes", "--q", "1e-300", "--m", "1", "--k", "1"), {},
         "r^l for |l| <= 8 out of floating-point range at radius 1e+150"),
        (("eval", "--fn", "nope", "--x", "1"), {},
         "unknown function 'nope'; choose from ['F', 'K', 'Y', 'center', 'g', 'gk', "
         "'kappa', 'mu', 'ps1', 'snh', 'tau', 'theta']"),
        (("eval", "--fn", "theta", "--a", "0.5"), {}, "function 'theta' needs at least one --x"),
        (("eval", "--fn", "F", "--m", "1", "--p", "q^2", "--x", "1.1"), {},
         "p = 'q^2' needs --q to be given"),
        (("eval", "--fn", "theta", "--a", "0.5", "--x", "nan"), {}, "x must be finite, got 'nan'"),
        # x^2 = 1e-310 is subnormal, not zero, and 1/x^2 overflows: the square
        # is refused where it is formed, not later as a stalled series or an
        # infinite theta argument
        (("eval", "--fn", "tau", "--q", "0.5", "--x", "1e-155"), {}, SUBNORMAL_SQUARE),
        (("eval", "--fn", "F", "--m", "1", "--p", "0.2", "--q", "0.5", "--x", "1e-155"), {},
         SUBNORMAL_SQUARE),
        (("eval", "--fn", "Y", "--m", "1", "--p", "0.2", "--q", "0.5", "--x", "1e-155"), {},
         SUBNORMAL_SQUARE),
        (("eval", "--fn", "g", "--q", "0.5", "--x", "1e-155"), {}, SUBNORMAL_SQUARE),
        (("eval", "--fn", "gk", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1e-155"), {},
         SUBNORMAL_SQUARE),
        (("eval", "--fn", "center", "--q", "0.5", "--x", "1e-155"), {}, SUBNORMAL_SQUARE),
        (("eval", "--fn", "mu", "--p", "0.2", "--q", "0.5", "--x", "1e-155"), {},
         SUBNORMAL_SQUARE),
        (("limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1e-155"), {}, SUBNORMAL_SQUARE),
        # x^2 is normal and 1/x^2 has finite parts, but its modulus overflows abs()
        (("eval", "--fn", "g", "--q", "0.5",
          "--x=-2.6856352700903824e-155-6.787535176026949e-155j"), {},
         "1/x^2 is out of floating-point range at x^2 = "
         "(-3.88579969618497e-309+3.64576877314342e-309j)"),
        # q^2 underflows to 0, leaving the one pole x^2 = q^0 = 1
        (("eval", "--fn", "g", "--q", "1e-200", "--x", "1"), {},
         "x = (1+0j) is within 1e-08 of a pole x^2 = q^(2j)"),
        (("eval", "--fn", "g", "--q", "1e-200", "--x=-1"), {},
         "x = (-1+0j) is within 1e-08 of a pole x^2 = q^(2j)"),
        # kappa_inv takes the square itself, under the name x2
        (("eval", "--fn", "kappa", "--p", "0.2", "--q", "0.5", "--x", "1e-155"), {},
         "1/x2 is out of floating-point range at x2 = (1e-310+0j)"),
        # u = K'(0.6) puts p y^-2 on a zero of theta_{p^2}: snh's quotient
        # refuses its denominator argument as every theta quotient does
        (("eval", "--fn", "snh", "--u", "1.9953027776647299", "--modulus", "0.6"), {},
         "theta_a denominator zero near (0.0007764068758774904+0j), a = 0.0007764068758774913"),
        # snh's argument y = e^(pi u / 2K) is refused by u, whichever of y,
        # y^2 = 0, a subnormal y^2 or an infinite y^2 is out of range
        (("eval", "--fn", "snh", "--u=-1e3", "--modulus", "0.5"), {},
         "snh argument e^(pi u / 2K) underflows at u = -1000.0"),
        (("eval", "--fn", "snh", "--u=-500", "--modulus", "0.5"), {},
         "snh argument e^(pi u / 2K) underflows at u = -500.0"),
        (("eval", "--fn", "snh", "--u=-390", "--modulus", "0.5"), {},
         "snh argument e^(pi u / 2K) underflows at u = -390.0"),
        (("eval", "--fn", "snh", "--u", "400", "--modulus", "0.5"), {},
         "snh argument e^(pi u / 2K) overflows at u = 400.0"),
        # p^2 underflows to 0, and F divides a head by it
        (("eval", "--fn", "F", "--m", "2", "--p", "1e-179", "--q", "0.1", "--x", "1e-103"), {},
         "p^2 underflows at p = (1e-179+0j)"),
        # at Y's step s = 1, p is normal and the arguments x^2 p (a denominator)
        # and x^2 q^2 p have underflowed to 0: no p^s check could name p here
        (("eval", "--fn", "Y", "--m", "2", "--p", "1e-179", "--q", "0.1", "--x", "1e-103"), {},
         "theta argument must be nonzero"),
        # every argument of Y's step 1 is nonzero, and p^2 alone underflows
        (("eval", "--fn", "Y", "--m", "2", "--p", "1e-162", "--q", "1e-50", "--x", "1"), {},
         "p^2 underflows at p = (1e-162+0j)"),
        # the truncation policy refuses its fields by name, from flags or environment
        (("eval", "--fn", "theta", "--a", "0.5", "--x", "1.1", "--max-terms", "0"), {},
         "max_terms must be a positive integer"),
        (("eval", "--fn", "theta", "--a", "0.5", "--x", "1.1", "--tail-tol", "2"), {},
         "tail_tol must lie in (0, 1)"),
        (("eval", "--fn", "theta", "--a", "0.5", "--x", "1.1"), {"ELLEX_DEFAULT_TOL": "2"},
         "tail_tol must lie in (0, 1)"),
        # beyond 1 - 1e-14 a series may keep terms near its poles (log_deriv_theta)
        (("eval", "--fn", "theta", "--a", "0.5", "--x", "1.1", "--tail-tol", "0.999999999999999"),
         {}, "tail_tol must be at most 1 - 1e-14, got 0.999999999999999"),
        # p = q^(4k / (2 - beta)) overflows at k < 0 and a tiny q
        (("limit", "--m", "1", "--k=-3", "--q", "1e-110", "--x", "1.4"), {},
         "p = q^(4k / (2 - beta)) overflows at k = -3, beta = 0.1, q = (1e-110+0j)"),
        # a theta argument x with a normal modulus whose a/x has finite parts
        # but a modulus that overflows abs()
        (("eval", "--fn", "Y", "--m=-4", "--p=-5.7e-132+4.2e-132j", "--q=-0.095+0.0225j",
          "--x=4.129478984429438e+90-9.051008705671213e+89j"), {},
         "|a/x| is out of floating-point range at theta argument "
         "x = (-3.8799492043e-313+8.006117666e-314j), a = (5.42934765625e-05-7.28353125e-05j)"),
        # |p^2| rounds to 1 - 2^-53: hundreds of millions of powers p^(2n) lie
        # within 1e-8 of the denominator argument's modulus, and were all tried
        (("eval", "--fn", "mu", "--p=q^-2", "--q=1+7.967831128488578e-09j",
          "--x=-1.2438604811473973e-12"), {},
         "|a| = 0.9999999999999999 is too close to 1: 1167794305 powers a^n lie within "
         "relative 1e-08 of |x| = 1.54719e-24, more than 1024 to try"),
        *[(("eval", "--fn", fn, f"--q={NEAR_UNIT_Q}", "--x", "1.3"), {}, message)
          for fn, message in (
              ("center", "|a| = 0.9999999999999996 is too close to 1: 47399164 powers a^n lie "
                         "within relative 1e-08 of |x| = 1.69, more than 1024 to try"),
              ("g", "|a| = 0.9999999999999998 is too close to 1: 94798329 powers a^n lie "
                    "within relative 1e-08 of |x| = 1.69, more than 1024 to try"),
              ("tau", "|a| = 0.9999999999999996 is too close to 1: 47399165 powers a^n lie "
                      "within relative 1e-08 of |x| = 0.591716, more than 1024 to try"),
          )],
        # the samplers' grid clearance, which has no policy to stop it
        (("verify", "--suite", "coincidence", f"--q={NEAR_UNIT_Q}"), {},
         "|a| = 0.9999999999999998 is too close to 1: 9011708905934 powers a^n lie within "
         "relative 0.001 of |x| = 1.40112, more than 1024 to try"),
        (("verify", "--suite", "tau-dual", f"--q={NEAR_UNIT_Q}"), {},
         "|a| = 0.9999999999999996 is too close to 1: 900812170912 powers a^n lie within "
         "relative 0.0002 of |x| = 0.618948, more than 1024 to try"),
        # p = q^(2k) overflows, which rejects every point
        (("verify", "--suite", "commuting-points", "--q=-0.055840228260864135", "--k=-1000"),
         {}, "f-even-closed-form(k=-1000), y-equals-one(k=-1000): only 0 of 10 points valid "
         "after 100 candidates"),
        # above |a| = 0.99965 the dual nome's error bound passes 1e-12, and
        # the product, which needs more than max_terms factors, takes theta
        (("eval", "--fn", "theta", "--a", "0.9999", "--x", "1.1"), {},
         "tail bound 1e-15 not reached within max_terms=512 (base moduli 0.9999)"),
        (("eval", "--fn", "tau", "--q=0.999999", "--x=-1"), {},
         "tail bound 1e-15 not reached within max_terms=512 (base moduli 1)"),
        # from |a| = qseries._CROSSOVER on, theta takes the dual nome, and a
        # theta or a quotient that leaves the normal double range is refused
        (("eval", "--fn", "theta", "--a", "0.9996", "--x", "1.1"), {},
         "theta_a(x) underflows at x = (1.1+0j), a = (0.9996+0j)"),
        (("eval", "--fn", "theta", "--a", "0.999", "--x", "1.1", "--max-terms", "100000"), {},
         "theta_a(x) underflows at x = (1.1+0j), a = (0.999+0j)"),
        (("eval", "--fn", "mu", "--p", "0.998", "--q", "0.5", "--x", "1.1",
          "--max-terms", "100000"), {},
         "theta quotient underflows at a = (0.996004+0j)"),
        (("eval", "--fn", "theta", "--a", "0.994", "--x", "1.1", "--max-terms", "100000"), {},
         "theta_a(x) underflows at x = (1.1+0j), a = (0.994+0j)"),
        # mu's quotient is in range, and (p; p)^2 underflows
        (("eval", "--fn", "mu", "--p", "0.997", "--q", "0.5", "--x", "2.5",
          "--max-terms", "100000"), {},
         "(p; p)^2 underflows at p = (0.997+0j)"),
        # kappa_inv's head-row products and the running products of F and Y
        # underflow to 0 with no factor or step 0
        *[(("eval", "--fn", fn, "--p", "0.995", "--q", "0.5", "--x", "2.5",
            "--max-terms", "100000"), {}, "kappa_inv row products underflow at x2 = (6.25+0j)")
          for fn in ("kappa", "mu")],
        (("eval", "--fn", "F", "--m=-32", "--p=0.9183099367747641+0.022373689537674168j",
          "--q=-0.03988826010863804+0.8757637783654194j",
          "--x=-0.3104834713268973-0.17483602480197497j"), {},
         "F underflows to 0 at x = (-0.3104834713268973-0.17483602480197497j), m = -32"),
        (("eval", "--fn", "Y", "--m=58", "--p=0.9672497223588254-0.025608725260075536j",
          "--q=0.06706630858736884+0.7588416436919556j",
          "--x=0.7680811674400397-0.9103962883210333j"), {},
         "Y underflows to 0 at x = (0.7680811674400397-0.9103962883210333j), m = 58"),
    ],
)
def test_bad_input_is_an_ellex_error_naming_it(capsys, monkeypatch, argv, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        # each needed a product of thousands of factors, or one that underflowed
        (("eval", "--fn", "mu", "--p", "0.995", "--q", "0.5", "--x", "1.1",
          "--max-terms", "100000")),
        (("eval", "--fn", "theta", "--a", "0.93", "--x=1.1")),
    ],
)
def test_eval_reaches_bases_the_product_could_not(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["results"]
    got = complex(row["value"])
    assert cmath.isfinite(got) and got != 0


def test_eval_points_share_one_base_per_policy(capsys, monkeypatch):
    # one scope for the invocation: the values and their 100x tighter
    # references each share one base, not one per point
    built = []

    class Counted(qseries._Base):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[2])
            super().__init__(*args)

    monkeypatch.setattr(qseries, "_Base", Counted)
    xs = [f"--x={1.1 + 0.05j * j}" for j in range(20)]
    code, out, err = run(capsys, "eval", "--fn", "theta", "--a", "0.3", *xs)
    assert (code, len(out.splitlines()), err) == (0, 20, "")
    assert [policy.tail_tol for policy in built] == [1e-15, 1e-17]


def test_g_away_from_its_pole_keeps_its_value_when_q_squared_underflows(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "gk", "--m", "1", "--k", "1", "--q", "1e-200",
                       "--x", "1.5")
    value = "(-2394.6884967138076+0j)  (change at a 100x tighter tail: 0.00e+00)"
    assert (code, out) == (0, f"gk at x = (1.5+0j): {value}\n")


def test_output_into_a_missing_directory_fails_before_eval(capsys, monkeypatch, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    evaluated = []
    monkeypatch.setattr(cli, "complete_K", evaluated.append)
    code, out, err = run(capsys, "eval", "--fn", "K", "--modulus", "0.5", "--output", str(path))
    message = f"error: cannot write --output {str(path)!r}: not a file in an existing directory\n"
    assert (code, out, err, evaluated) == (2, "", message, [])
    assert not path.parent.exists()


@pytest.mark.parametrize("name", ["missing/report.json", "."])
def test_output_that_is_not_writable_fails_before_any_suite_runs(
    capsys, monkeypatch, tmp_path, name
):
    from ellex import suites

    ran = []
    monkeypatch.setattr(suites, "run_suites", lambda *args: ran.append(args))
    path = str(tmp_path / name)
    code, out, err = run(capsys, "verify", "--suite", "theta", "--format", "json", "--output", path)
    assert (code, out, ran) == (2, "", [])
    assert err == f"error: cannot write --output {path!r}: not a file in an existing directory\n"


def test_output_write_error_is_an_ellex_error(capsys, tmp_path):
    # the directory exists, but the name is longer than a file name may be
    path = str(tmp_path / ("x" * 300))
    code, out, err = run(capsys, "eval", "--fn", "K", "--modulus", "0.5", "--output", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --output {path!r}: ")


def test_main_reports_only_ellex_errors(monkeypatch):
    # one error path: any other exception is a bug and propagates
    def broken(args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "_cmd_limit", broken)
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(ValueError, match="not an input error"):
            main(["limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4"])
    finally:
        cli.build_parser.cache_clear()


def test_limit_needs_two_distinct_betas(capsys):
    for betas in ("1e-2,1e-2", "0.1"):
        code, _, err = run(
            capsys, "limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4",
            "--betas", betas,
        )
        assert code == 2
        assert "two distinct betas" in err


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_verify_parallel_below_one_is_usage_error(capsys, degree):
    code, out, err = run(capsys, "verify", "--suite", "tau", "--parallel", degree)
    assert code == 2
    assert out == "" and "--parallel" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--q", "1.5"), "--q must satisfy 0 < |q| < 1, got (1.5+0j)"),
        (("--q", "0"), "--q must satisfy 0 < |q| < 1, got 0j"),
        (("--q", "0.5+0.9j"), "--q must satisfy 0 < |q| < 1, got (0.5+0.9j)"),
        (("--p", "0"), "--p must be nonzero, got 0j"),
        (("--k", "0"), "--k must be a nonzero integer, got 0"),
        # refused by the mode-brackets suite, which `all` includes
        (("--q=-0.45",), "mode-bracket suite uses real positive q"),
        (("--q", "0.3+0.2j"), "mode-bracket suite uses real positive q"),
    ],
    ids=["q=1.5", "q=0", "q=0.5+0.9j", "p=0", "k=0", "q=-0.45", "q=0.3+0.2j"],
)
@pytest.mark.parametrize("degree", ["1", "2"])
def test_verify_config_is_refused_by_name_before_any_suite_runs(
    capsys, monkeypatch, argv, message, degree
):
    import concurrent.futures

    from ellex import suites

    ran = []

    def started(*args, **kwargs):
        ran.append(args)
        raise AssertionError("a suite ran or a worker pool started")

    monkeypatch.setattr(suites, "run_suite", started)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started)
    code, out, err = run(capsys, "verify", *argv, "--parallel", degree)
    assert (code, out, err, ran) == (2, "", f"error: {message}\n", [])


def test_verify_suites_other_than_mode_brackets_run_at_a_negative_q(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theta", "--suite", "f-two-path",
                         "--q=-0.45", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["suites"] == ["theta", "f-two-path"]


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--fn", "tau", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "F", "--m", "1", "--p", "0.2", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "Y", "--m", "1", "--p", "0.2", "--q", "1e-100", "--x", "1.1"),
        # the closed forms check q^4 once, before their first step: F at
        # m < 0 starts at s = 0, with no p^s, and Y's steps only multiply by
        # p^s; at p = 1e-170, p^2 underflows at step 2, after the base check
        ("eval", "--fn", "F", "--m=-1", "--p", "0.2", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "F", "--m=-2", "--p", "1e-170", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "F", "--m", "2", "--p", "1e-170", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "Y", "--m=-1", "--p", "0.2", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "Y", "--m", "2", "--p", "1e-170", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "center", "--q", "1e-100", "--x", "1.1"),
        ("eval", "--fn", "kappa", "--p", "0.2", "--q", "1e-100", "--x", "1.1"),
        ("limit", "--m", "1", "--k", "1", "--q", "1e-100", "--x", "1.1"),
    ],
    ids=["tau", "F", "Y", "F-m-1", "F-m-2-p2", "F-m2-p2", "Y-m-1", "Y-m2-p2", "center", "kappa",
         "limit"],
)
def test_an_underflowed_base_is_named_q4(capsys, argv):
    # q = 1e-100 is in the disk, but q^4 underflows to 0
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: |q^4| must lie in (0, 1), got 0\n")


@pytest.mark.parametrize("fn, m", [("F", "2"), ("F", "-2"), ("Y", "2"), ("Y", "-1")])
def test_a_subnormal_x2_is_refused_before_an_underflowed_base(capsys, fn, m):
    # the closed forms check x, then x^2, then the base q^4
    code, out, err = run(capsys, "eval", "--fn", fn, f"--m={m}", "--p", "1e-170",
                         "--q", "1e-100", "--x", "1e-160")
    message = "error: 1/x^2 is out of floating-point range at x^2 = (1e-320+0j)\n"
    assert (code, out, err) == (2, "", message)


def test_an_underflowed_mu_base_is_named_p2(capsys):
    code, out, err = run(capsys, "eval", "--fn", "mu", "--p", "1e-200", "--q", "0.5", "--x", "1.1")
    assert (code, out, err) == (2, "", "error: |p^2| must lie in (0, 1), got 0\n")


def test_verify_rmatrix_suite_refuses_p_outside_the_disk_by_name(capsys):
    # the exchange suites take |p| >= 1 (see above); R+ does not
    code, out, err = run(capsys, "verify", "--suite", "rmatrix", "--p", "1.5")
    message = "error: the rmatrix suite needs |p| < 1, got p = (1.5+0j)\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("pairs", [(), ("--pairs", "1:-1")])
def test_modes_negative_cutoff_is_refused_before_the_table_is_built(capsys, monkeypatch, pairs):
    built = []
    monkeypatch.setattr(cli, "laurent_modes", lambda *args, **kwargs: built.append(args))
    code, out, err = run(capsys, "modes", "--q", "0.5", "--m", "1", "--k", "1",
                         "--cutoff", "-1", *pairs)
    assert (code, out, err, built) == (
        2, "", "error: --cutoff must be a non-negative integer, got -1\n", []
    )


@pytest.mark.parametrize("pairs", ["1-1", "a:1", "1:2:3", "1:-1,2"])
def test_modes_malformed_pairs_name_the_form(capsys, pairs):
    code, _, err = run(
        capsys, "modes", "--q", "0.5", "--m", "1", "--k", "1", "--lmax", "2",
        f"--pairs={pairs}",
    )
    assert code == 2
    assert "n:m" in err


# ---------------------------------------------------------------------------
# cold start: no command imports numpy

SCALAR_EVALS = {
    "theta": ("--a", "0.4", "--x", "1.1"),
    "tau": ("--q", "0.5", "--x", "1.1"),
    "mu": ("--p", "0.2", "--q", "0.5", "--x", "1.1"),
    "kappa": ("--p", "0.2", "--q", "0.5", "--x", "1.1"),
    "F": ("--m", "1", "--p", "0.2", "--q", "0.45", "--x", "1.3"),
    "Y": ("--m", "1", "--p", "0.2", "--q", "0.45", "--x", "1.3"),
    "g": ("--q", "0.5", "--x", "1.1"),
    "center": ("--q", "0.5", "--x", "1.1"),
    "ps1": ("--q", "0.5", "--x", "1.1"),
    "gk": ("--m", "1", "--k", "1", "--q", "0.5", "--x", "1.1"),
    "snh": ("--u", "0.3", "--modulus", "0.5"),
    "K": ("--modulus", "0.5"),
}

# one interpreter runs every step in order and prints, per step, its exit
# code (None for an import) and whether numpy is loaded after it
COLD_START = """
import contextlib, io, json, sys
steps = json.loads(sys.argv[1])
seen = []
import ellex
seen.append(["import ellex", None, "numpy" in sys.modules])
import ellex.cli
seen.append(["import ellex.cli", None, "numpy" in sys.modules])
for label, argv in steps:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ellex.cli.main(argv)
    seen.append([label, code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_scalar_commands_never_import_numpy():
    assert set(SCALAR_EVALS) == set(cli._EVAL_FNS)
    steps = [(f"eval {fn}", ["eval", "--fn", fn, *args]) for fn, args in SCALAR_EVALS.items()]
    steps += [
        ("limit", ["limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4"]),
        ("--version", ["--version"]),
        ("--help", ["--help"]),
        ("modes", ["modes", "--q", "0.5", "--m", "1", "--k", "1"]),
        *((f"verify {name}", ["verify", "--suite", name]) for name in suites.SUITES),
        ("verify all", ["verify", "--suite", "all"]),
        ("verify all --parallel 2", ["verify", "--suite", "all", "--parallel", "2"]),
        ("usage error", ["eval", "--badflag"]),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(ellex.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(steps)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    expected = [["import ellex", None, False], ["import ellex.cli", None, False]]
    expected += [[label, 0, False] for label, _ in steps[:-1]]
    expected += [["usage error", 2, False]]
    assert json.loads(proc.stdout) == expected


# ---------------------------------------------------------------------------
# repeated main calls in one process


@functools.cache
def fresh(argv: tuple[str, ...], columns: str | None = None) -> tuple[int, str, str]:
    """One ellex invocation in a new interpreter: the behaviour every
    in-process call must reproduce."""
    env = dict(os.environ, PYTHONPATH=str(Path(ellex.__file__).parents[1]))
    env.pop("ELLEX_DEFAULT_TOL", None)
    if columns is not None:
        env["COLUMNS"] = columns
    proc = subprocess.run(
        [sys.executable, "-m", "ellex.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


EVAL_A = ("eval", "--fn", "theta", "--a", "0.4", "--x", "2.0", "--x", "0.5j",
          "--x", "-1.3", "--format", "json")
EVAL_B = ("eval", "--fn", "theta", "--a", "0.4", "--x", "1.7", "--format", "json")


def test_eval_calls_keep_only_their_own_points(capsys):
    first, second = run(capsys, *EVAL_A), run(capsys, *EVAL_B)
    assert first == fresh(EVAL_A) and second == fresh(EVAL_B)
    assert [r["x"] for r in json.loads(second[1])["results"]] == ["(1.7+0j)"]


def test_usage_error_leaves_the_next_call_unchanged(capsys):
    code, _, err = run(capsys, "eval", "--fn", "theta", "--badflag")
    assert code == 2 and "unrecognized arguments" in err
    assert run(capsys, *EVAL_A) == fresh(EVAL_A)


def test_help_follows_columns_on_every_call(capsys, monkeypatch):
    widths = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "--help")
        assert (code, out) == fresh(("--help",), columns)[:2]
        widths[columns] = max(len(line) for line in out.splitlines())
    assert widths["60"] <= 60 < widths["120"]


def test_verify_then_eval_match_fresh_processes(capsys):
    verify = ("verify", "--suite", "theta", "--format", "json")
    assert run(capsys, *verify) == fresh(verify)
    assert run(capsys, *EVAL_B) == fresh(EVAL_B)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # one root parser and four subparsers, however many calls follow
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for argv in (
            EVAL_A,
            EVAL_B,
            ("verify", "--suite", "tau", "--format", "json"),
            ("modes", "--q", "0.5", "--m", "1", "--k", "1", "--lmax", "2"),
            ("limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4",
             "--betas", "1e-2,1e-3"),
        ):
            assert main(list(argv)) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) <= 5


def test_verify_memo_lives_for_one_point(capsys, monkeypatch):
    # each sampled point starts from an empty memo, so two identical runs in
    # one process compute the same theta factors, and no memo outlives a run,
    # whether it passes or exits 2
    from ellex import qseries, suites

    evaluate = suites._eval_commuting
    computed = []

    def fresh_memo_evaluate(*args):
        memo = qseries._MEMO.get()
        assert memo == {}
        try:
            return evaluate(*args)
        finally:
            computed.append(sum(len(base.pairs) for base in memo.values()))

    monkeypatch.setattr(suites, "_eval_commuting", fresh_memo_evaluate)
    counts = []
    for _ in range(2):
        computed.clear()
        code, _, err = run(capsys, "verify", "--suite", "commuting-points", "--k", "2")
        assert code == 0, err
        assert qseries._MEMO.get() is None
        counts.append(sum(computed))
    assert counts[0] == counts[1] > 0
    computed.clear()
    code, _, err = run(
        capsys, "verify", "--suite", "commuting-points", "--q=-0.055840228260864135",
        "--k=-1000",
    )
    assert code == 2 and "candidates" in err
    assert computed and qseries._MEMO.get() is None
