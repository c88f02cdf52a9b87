"""Command-line front end.

Subcommands:

    eval    evaluate one structure function on one or more points
    verify  run named identity suites and emit a machine-readable report
    limit   beta-ladder study of the classical-limit convergence
    modes   annulus-resolved mode structure constants and bracket rendering

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
domain error (an ``EllexError``).  The environment variable ELLEX_DEFAULT_TOL
overrides the default tail tolerance when --tail-tol is not given.  Each
command builds its rows once and renders them through ``_emit``, the one
--format switch; ``report.json_bytes`` builds every JSON envelope.  Outputs
are byte-identical across runs for a fixed configuration, text timings aside.

``main(argv)`` may be called any number of times in one process; each call
gives the output a fresh process would.  The argument parser is built on the
first call and reused after it: parsing leaves it unchanged, the environment
is read when a command runs, and ``--help`` measures the terminal when it
prints.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import os
import re
import sys
import time
from typing import Callable, Iterable

from . import __version__
from .elliptic import NomeParams, complete_K, jacobi_snh
from .errors import DomainError, EllexError
from .exchange import LevelParams, exchange_F, exchange_Y
from .poisson import (
    ORDER_DEFECT_TOL,
    AnnulusLabel,
    beta_limit_check,
    format_mode_bracket,
    laurent_modes,
    poisson_series_g,
    poisson_structure,
    poisson_structure_center,
)
from .qseries import DEFAULT_POLICY, TruncationPolicy, point_scope, theta
from .report import CheckResult, VerificationReport, csv_text, json_bytes
from .rmatrix import kappa_inv, mu_inv, tau_fn

_SYMBOLIC = re.compile(r"q\^(-?\d+)(?:-exact)?$")
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _parse_number(text: str, name: str, kind: type = complex) -> complex:
    """text as a finite complex (or float) number, else EllexError naming it."""
    try:
        val = kind(text.replace(" ", ""))
    except ValueError as exc:
        what = "a complex" if kind is complex else "a real"
        raise EllexError(f"cannot parse {name} = {text!r} as {what} number") from exc
    if not cmath.isfinite(val):
        raise EllexError(f"{name} must be finite, got {text!r}")
    return val


def _parse_param(text: str | None, name: str, q: complex | None) -> complex | None:
    """Parse a numeric flag; 'q^<k>' forms are expanded exactly from q so
    special points like p = q^2 are hit without decimal rounding."""
    if text is None:
        return None
    m = _SYMBOLIC.match(text.strip())
    if m:
        if q is None:
            raise EllexError(f"{name} = {text!r} needs --q to be given")
        try:
            return q ** int(m.group(1))
        except (ZeroDivisionError, OverflowError) as exc:
            raise EllexError(f"{name} = {text!r} is out of floating-point range") from exc
    return _parse_number(text, name)


def _policy_from(args: argparse.Namespace) -> TruncationPolicy:
    tail = args.tail_tol
    if tail is None:
        env = os.environ.get("ELLEX_DEFAULT_TOL")
        tail = _parse_number(env, "ELLEX_DEFAULT_TOL", float) if env else DEFAULT_POLICY.tail_tol
    return TruncationPolicy(max_terms=args.max_terms, tail_tol=tail)


def _emit(args: argparse.Namespace, json: Callable, csv: Callable, text: Callable) -> None:
    """The output switch of every command: call only the renderer --format
    names (json gives bytes, csv and text give str) and write what it
    returns to --output, or to stdout."""
    out = {"json": json, "csv": csv, "text": text}[args.format]()
    if isinstance(out, bytes):
        out = out.decode()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as f:
                f.write(out)
        except OSError as exc:
            raise EllexError(f"cannot write --output {args.output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(out)


def _check_output(path: str) -> None:
    """EllexError unless --output names a file in a directory that exists,
    checked before a command runs so that a bad path fails at once."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise EllexError(f"cannot write --output {path!r}: not a file in an existing directory")


def _lines(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# eval

_EVAL_FNS = {
    "theta": (("a", "x"), lambda a, x, pol: theta(a, x, pol)),
    "tau": (("q", "x"), lambda q, x, pol: tau_fn(x, q, pol)),
    "mu": (("p", "q", "x"), lambda p, q, x, pol: mu_inv(x, p, q, pol)),
    "kappa": (("p", "q", "x"), lambda p, q, x, pol: kappa_inv(x * x, p, q, pol)),
    "F": (
        ("m", "p", "q", "x"),
        lambda m, p, q, x, pol: exchange_F(LevelParams(m, NomeParams(p, q)), x, pol),
    ),
    "Y": (
        ("m", "p", "q", "x"),
        lambda m, p, q, x, pol: exchange_Y(LevelParams(m, NomeParams(p, q)), x, pol),
    ),
    "g": (("q", "x"), lambda q, x, pol: poisson_series_g(x, q, pol)),
    "center": (("q", "x"), lambda q, x, pol: poisson_structure_center(x, q, pol)),
    "ps1": (("q", "x"), lambda q, x, pol: poisson_structure_center(x, q, pol)),
    "gk": (
        ("m", "k", "q", "x"),
        lambda m, k, q, x, pol: poisson_structure(m, k, x, q, pol),
    ),
    "snh": (("u", "modulus"), lambda u, mod, pol: jacobi_snh(u, mod, pol)),
    "K": (("modulus",), lambda mod, pol: complete_K(mod)),
}


def _finite(value: complex, fn: str, x: complex | None = None) -> complex:
    """value, or DomainError when it is not finite: an overflow that the
    layers below let through as inf or nan."""
    if not cmath.isfinite(value):
        where = "" if x is None else f" at x = {x!r}"
        raise DomainError(f"{fn}{where} is not finite: {value!r}")
    return value


def _cmd_eval(args: argparse.Namespace) -> int:
    pol = _policy_from(args)
    fn = args.fn
    if fn not in _EVAL_FNS:
        raise EllexError(f"unknown function {fn!r}; choose from {sorted(_EVAL_FNS)}")
    needed, impl = _EVAL_FNS[fn]
    q = _parse_param(args.q, "q", None)
    values = {
        "a": _parse_param(args.a, "a", q),
        "p": _parse_param(args.p, "p", q),
        "q": q,
        "m": args.m,
        "k": args.k,
        "u": args.u,
        "modulus": args.modulus,
    }
    for name in needed:
        if name != "x" and values[name] is None:
            raise EllexError(f"function {fn!r} needs --{name}")
    fixed = [values[name] for name in needed if name != "x"]
    xs = [_parse_number(t, "x") for t in (args.x or [])]
    if "x" in needed and not xs:
        raise EllexError(f"function {fn!r} needs at least one --x")

    rows = []
    fine = pol.tighter(100.0)
    with point_scope():  # the points share one base per policy
        for x in xs if "x" in needed else [None]:
            at = fixed if x is None else [*fixed, x]
            val = _finite(impl(*at, pol), fn, x)
            ref = _finite(impl(*at, fine), fn, x)
            where = {} if x is None else {"x": x}
            rows.append({"fn": fn, **where, "value": val, "trunc_err": abs(val - ref)})

    def text(r: dict) -> str:
        where = f" at x = {r['x']!r}" if "x" in r else ""
        return f"{fn}{where}: {r['value']!r}  (change at a 100x tighter tail: {r['trunc_err']:.2e})"

    _emit(
        args,
        lambda: json_bytes({"results": rows}),
        lambda: csv_text([("fn", "x", "value", "trunc_err")] + [
            (fn, r.get("x", ""), r["value"], r["trunc_err"]) for r in rows
        ]),
        lambda: _lines(map(text, rows)),
    )
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here so that eval, limit and modes never load the suites
    from .suites import VerifyConfig, list_suites, run_suites

    if args.list:
        sys.stdout.write(list_suites())
        return 0
    pol = _policy_from(args)
    q = _parse_param(args.q, "q", None)
    p = _parse_param(args.p, "p", q)
    cfg = VerifyConfig(
        seed=args.seed, policy=pol, parallel=args.parallel, q=q, p=p, k=args.k
    )
    names = args.suite or ["all"]
    report = run_suites(names, cfg)
    _emit(args, report.to_json_bytes, report.to_csv_text, report.to_text)
    if args.format != "text" and args.output:
        sys.stdout.write(report.to_text())
    return 0 if report.aggregate_pass else 1


# ---------------------------------------------------------------------------
# limit


def _cmd_limit(args: argparse.Namespace) -> int:
    pol = _policy_from(args)
    q = _parse_param(args.q, "q", None)
    x = _parse_number(args.x, "x")
    t0 = time.perf_counter()
    ladder = [_parse_number(b, "--betas entry", float) for b in args.betas.split(",")]
    defect, info = beta_limit_check(args.m, args.k, q, x, ladder, pol)
    betas = [row["beta"] for row in info["table"]]
    point = {"m": args.m, "k": args.k, "q": q, "x": x, "betas": betas}
    check = CheckResult(
        check_id="beta-ladder",
        params=point,
        max_abs_error=float(defect),
        tolerance=ORDER_DEFECT_TOL,
        passed=bool(defect <= ORDER_DEFECT_TOL),
        wall_time_s=time.perf_counter() - t0,
        info=info,
    )
    config = {**point, "tail_tol": pol.tail_tol, "max_terms": pol.max_terms}
    report = VerificationReport("beta-ladder", [check], config)
    _emit(args, report.to_json_bytes, report.to_csv_text, report.to_text)
    if args.format == "text" or args.output:
        for row in info["table"]:
            sys.stdout.write(
                f"  beta={row['beta']:<8g} lnY/beta={row['lnY_over_beta']!r}  "
                f"|err|={row['abs_error']:.6e}\n"
            )
        sys.stdout.write(f"  order over the two finest steps: {info['order']:.4f}\n")
    return 0 if check.passed else 1


# ---------------------------------------------------------------------------
# modes


def _parse_pairs(text: str | None) -> list[tuple[int, int]]:
    """'1:-1,2:0' as [(1, -1), (2, 0)]."""
    pairs = []
    for pair in (text.split(",") if text else []):
        try:
            n, m = map(int, pair.split(":"))
        except ValueError as exc:
            raise EllexError(
                f"--pairs entry {pair!r} is not of the form n:m with integers n, m"
            ) from exc
        pairs.append((n, m))
    return pairs


def _cmd_modes(args: argparse.Namespace) -> int:
    pol = _policy_from(args)
    q = _parse_param(args.q, "q", None)
    pairs = _parse_pairs(args.pairs)
    if args.cutoff < 0:
        raise EllexError(f"--cutoff must be a non-negative integer, got {args.cutoff}")
    table = laurent_modes(
        args.which,
        q=q,
        annulus=AnnulusLabel(args.annulus),
        l_max=args.lmax,
        quadrature_points=args.nodes,
        m=args.m,
        k=args.k,
        policy=pol,
    )
    brackets = [format_mode_bracket(table, n, m, args.cutoff) for n, m in pairs]
    coefficients = sorted(table.coefficients.items())
    _emit(
        args,
        lambda: json_bytes({
            "which": table.which,
            "annulus": table.annulus.n_ann,
            "params": table.params,
            "structure_constants": table.coefficients,
            "raw_coefficients": table.raw_coefficients,
            "brackets": brackets,
        }),
        lambda: csv_text([("l", "structure_constant", "raw_coefficient")] + [
            (l, g, table.raw_coefficients[l]) for l, g in coefficients
        ]),
        lambda: _lines([
            f"structure constants on annulus {table.annulus.n_ann} "
            f"(radius {table.params['radius']:.6g}, {table.params['nodes']} nodes):",
            *(f"  g[{l:+d}] = {g!r}" for l, g in coefficients if abs(g) > 1e-12),
            *(b["text"] for b in brackets),
        ]),
    )
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built once per process; treat
    it as read-only."""
    parser = argparse.ArgumentParser(
        prog="ellex",
        description="evaluate and verify the structure functions of the "
        "elliptic eight-vertex exchange algebra",
    )
    parser.add_argument("--version", action="version", version=f"ellex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        # argparse reads only plain negative reals as values; a token that starts
        # like a number, as in --q -0.3+0.2j, is a value too
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        sp.add_argument("--tail-tol", type=float, default=None,
                        help="truncation tail tolerance "
                        f"(default {DEFAULT_POLICY.tail_tol} or ELLEX_DEFAULT_TOL)")
        sp.add_argument("--max-terms", type=int, default=DEFAULT_POLICY.max_terms)
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
        sp.add_argument("--output", default=None, help="write the report to this path")

    sp = sub.add_parser("eval", help="evaluate one structure function")
    sp.add_argument("--fn", required=True, help=f"one of {sorted(_EVAL_FNS)}")
    sp.add_argument("--a", default=None, help="theta base")
    sp.add_argument("--p", default=None, help="nome p (accepts q^<k> forms)")
    sp.add_argument("--q", default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--u", type=float, default=None)
    sp.add_argument("--modulus", type=float, default=None)
    sp.add_argument("--x", action="append", default=None, help="evaluation point (repeatable)")
    common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("verify", help="run identity verification suites")
    sp.add_argument("--suite", action="append", default=None,
                    help="suite name or alias; 'all' runs everything (repeatable)")
    sp.add_argument("--list", action="store_true", help="list suites and exit")
    sp.add_argument("--q", default=None, help="override the grid q")
    sp.add_argument("--p", default=None, help="override the grid p (accepts q^<k>)")
    sp.add_argument("--k", type=int, default=None, help="restrict commuting points to this k")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--parallel", type=int, default=1)
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("limit", help="beta-ladder study of the classical limit")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--betas", default="1e-1,1e-2,1e-3,1e-4")
    common(sp)
    sp.set_defaults(func=_cmd_limit)

    sp = sub.add_parser("modes", help="mode structure constants on an annulus")
    sp.add_argument("--which", default="klimit",
                    help="klimit (k-labeled) or center (aliases theorem7, ps1)")
    sp.add_argument("--q", required=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--annulus", type=int, default=0)
    sp.add_argument("--lmax", type=int, default=8)
    sp.add_argument("--nodes", type=int, default=256,
                    help="N, the node count of the coarse rule: a table samples 2N nodes "
                         "on the circle and reports params.nodes = 2N")
    sp.add_argument("--pairs", default=None, help="bracket pairs to render, e.g. '1:-1,2:0'")
    sp.add_argument("--cutoff", type=int, default=8)
    common(sp)
    sp.set_defaults(func=_cmd_modes)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except EllexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
