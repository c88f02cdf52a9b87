"""CLI surface tests: flag parsing, exact symbolic parameters, output
formats, exit codes, and report determinism."""

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellex
from ellex import cli
from ellex.cli import main


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
        pytest.param("theorem6", (), "f-equals-one(k=+1)", id="theorem6"),
        pytest.param("p-periodicity", (), "f-invariant-under-p-shift", id="p-periodicity"),
        pytest.param("f-two-path", (), "f-two-path(m=-3)", id="f-two-path"),
        pytest.param("y-two-path", (), "y-two-path(m=-3)", id="y-two-path"),
        pytest.param("feigin-frenkel", (), "y-q2-shift(m=+1)", id="feigin-frenkel"),
    ],
)
def test_verify_rmatrix_gives_up_when_no_point_is_valid(capsys, suite, extra, check_id):
    # at q = 0.999 every candidate exceeds max_terms, so sampling can never
    # fill the grid; the capped retries end in a typed error, exit code 2
    code, _, err = run(
        capsys, "verify", "--suite", suite, *extra, "--q", "0.999", "--max-terms", "8"
    )
    assert code == 2
    assert check_id in err and "candidates" in err


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
    info = payload["checks"][0]["info"]
    assert 5.0 <= info["ratio_1e-2_to_1e-3"] <= 20.0
    assert "fitted order" in out


def test_modes_command_json(capsys):
    code, out, _ = run(
        capsys,
        "modes", "--which", "klimit", "--q", "0.5", "--m", "1", "--k", "1",
        "--annulus", "0", "--lmax", "4", "--pairs", "1:-1,2:2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["antisymmetry_violation"] < 1e-10
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
        # overflow and the quotient is nan
        (("--fn", "kappa", "--p", "0.2", "--q", "0.5", "--x", "1e10"),
         "kappa at x = (10000000000+0j) is not finite: (nan+nanj)"),
    ],
)
def test_eval_overflow_is_a_domain_error(capsys, argv, message):
    # a typed error with exit code 2, not (nan+nanj) printed with exit code 0
    code, out, err = run(capsys, "eval", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("pairs", ["1-1", "a:1", "1:2:3", "1:-1,2"])
def test_modes_malformed_pairs_name_the_form(capsys, pairs):
    code, _, err = run(
        capsys, "modes", "--q", "0.5", "--m", "1", "--k", "1", "--lmax", "2",
        f"--pairs={pairs}",
    )
    assert code == 2
    assert "n:m" in err


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

    pair = qseries._theta_pair.__wrapped__
    evaluate = suites._eval_commuting
    computed = []

    def fresh_memo_evaluate(*args):
        memo = qseries._MEMO.get()
        assert memo == {}
        try:
            return evaluate(*args)
        finally:
            computed.append(sum(key[0] is pair for key in memo))

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
        capsys, "verify", "--suite", "commuting-points", "--q", "0.999", "--max-terms", "8"
    )
    assert code == 2 and "candidates" in err
    assert computed and qseries._MEMO.get() is None
