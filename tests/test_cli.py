"""CLI surface tests: flag parsing, exact symbolic parameters, output
formats, exit codes, and report determinism."""

import json
import math

import pytest

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
    # grid evaluation across processes merges in candidate order, so the
    # checks are identical; only the echoed parallel degree differs
    outs = {}
    for degree in ("1", "2"):
        path = tmp_path / f"par{degree}.json"
        code, _, _ = run(
            capsys,
            "verify", "--suite", "rmatrix", "--seed", "9", "--parallel", degree,
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        outs[degree] = json.loads(path.read_text())
        outs[degree]["config"].pop("parallel")
    assert outs["1"] == outs["2"]


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tau", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "suite,check_id,max_abs_error,tolerance,pass,params"


def test_limit_command(capsys, tmp_path):
    path = tmp_path / "limit.json"
    code, out, _ = run(
        capsys,
        "limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4",
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
