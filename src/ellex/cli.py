"""Command-line front end.

Subcommands:

    eval    evaluate one structure function on one or more points
    verify  run named identity suites and emit a machine-readable report
    limit   beta-ladder study of the classical-limit convergence
    modes   annulus-resolved mode structure constants and bracket rendering

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
domain error.  The environment variable ELLEX_DEFAULT_TOL overrides the
default tail tolerance when --tail-tol is not given.  Reports are
byte-identical across runs for a fixed configuration.

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
import math
import os
import re
import sys
import time

from . import __version__
from .elliptic import NomeParams, complete_K, jacobi_snh
from .errors import DomainError, EllexError
from .exchange import LevelParams, exchange_F, exchange_Y
from .poisson import (
    AnnulusLabel,
    beta_limit_check,
    format_mode_bracket,
    laurent_modes,
    poisson_series_g,
    poisson_structure,
    poisson_structure_center,
)
from .qseries import TruncationPolicy, theta
from .report import CheckResult, VerificationReport, _jsonable, json_bytes
from .rmatrix import kappa_inv, mu_inv, tau_fn

_SYMBOLIC = re.compile(r"q\^(-?\d+)(?:-exact)?$")
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _parse_complex(text: str, name: str) -> complex:
    try:
        val = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise EllexError(f"cannot parse {name} = {text!r} as a complex number") from exc
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
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
        return q ** int(m.group(1))
    return _parse_complex(text, name)


def _policy_from(args: argparse.Namespace) -> TruncationPolicy:
    tail = args.tail_tol
    if tail is None:
        env = os.environ.get("ELLEX_DEFAULT_TOL")
        tail = float(env) if env else 1e-15
    return TruncationPolicy(max_terms=args.max_terms, tail_tol=tail)


def _emit(payload_bytes: bytes, output: str | None) -> None:
    if output:
        with open(output, "wb") as f:
            f.write(payload_bytes)
    else:
        sys.stdout.write(payload_bytes.decode())


def _report_bytes(report: VerificationReport, fmt: str) -> bytes:
    if fmt == "json":
        return report.to_json_bytes()
    if fmt == "csv":
        return report.to_csv_text().encode()
    return report.to_text().encode()


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
    fixed = []
    for name in needed:
        if name == "x":
            continue
        if values.get(name) is None:
            raise EllexError(f"function {fn!r} needs --{name}")
        fixed.append(values[name])
    xs = [_parse_complex(t, "x") for t in (args.x or [])]
    if "x" in needed and not xs:
        raise EllexError(f"function {fn!r} needs at least one --x")

    rows = []
    fine = pol.tighter(100.0)
    if "x" in needed:
        for x in xs:
            val = _finite(impl(*fixed, x, pol), fn, x)
            ref = _finite(impl(*fixed, x, fine), fn, x)
            rows.append({"fn": fn, "x": x, "value": val, "trunc_err": abs(val - ref)})
    else:
        val = _finite(impl(*fixed, pol), fn)
        ref = _finite(impl(*fixed, fine), fn)
        rows.append({"fn": fn, "value": val, "trunc_err": abs(val - ref)})

    if args.format == "json":
        payload = {"schema": 1, "tool_version": __version__, "results": _jsonable(rows)}
        out = json_bytes(payload)
    elif args.format == "csv":
        lines = ["fn,x,value,trunc_err"]
        for r in rows:
            lines.append(
                f"{r['fn']},{r.get('x', '')!r},{r['value']!r},{r['trunc_err']!r}"
            )
        out = ("\n".join(lines) + "\n").encode()
    else:
        lines = []
        for r in rows:
            where = f" at x = {r['x']!r}" if "x" in r else ""
            lines.append(
                f"{r['fn']}{where}: {r['value']!r}  "
                f"(change at a 100x tighter tail: {r['trunc_err']:.2e})"
            )
        out = ("\n".join(lines) + "\n").encode()
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here so that eval, limit and modes never load the suites
    from .suites import VerifyConfig, list_suites, run_suites

    if args.list:
        sys.stdout.write(list_suites())
        return 0
    if args.parallel < 1:
        raise EllexError(f"--parallel needs at least 1 worker, got {args.parallel}")
    pol = _policy_from(args)
    q = _parse_param(args.q, "q", None)
    p = _parse_param(args.p, "p", q)
    cfg = VerifyConfig(
        seed=args.seed, policy=pol, parallel=args.parallel, q=q, p=p, k=args.k
    )
    names = args.suite or ["all"]
    report = run_suites(names, cfg)
    _emit(_report_bytes(report, args.format), args.output)
    if args.format != "text" and args.output:
        sys.stdout.write(report.to_text())
    return 0 if report.aggregate_pass else 1


# ---------------------------------------------------------------------------
# limit


def _cmd_limit(args: argparse.Namespace) -> int:
    pol = _policy_from(args)
    q = _parse_param(args.q, "q", None)
    if q is None:
        raise EllexError("limit needs --q")
    x = _parse_complex(args.x, "x")
    t0 = time.perf_counter()
    defect, info = beta_limit_check(
        args.m, args.k, q, x, [float(b) for b in args.betas.split(",")], pol
    )
    betas = [row["beta"] for row in info["table"]]
    check = CheckResult(
        check_id="beta-ladder",
        params={"m": args.m, "k": args.k, "q": q, "x": x, "betas": betas},
        max_abs_error=float(defect),
        tolerance=math.log10(2.0),
        passed=bool(defect <= math.log10(2.0)),
        wall_time_s=time.perf_counter() - t0,
        info=info,
    )
    report = VerificationReport(
        "beta-ladder",
        [check],
        {"m": args.m, "k": args.k, "q": q, "x": x, "betas": betas,
         "tail_tol": pol.tail_tol, "max_terms": pol.max_terms},
        __version__,
    )
    _emit(_report_bytes(report, args.format), args.output)
    if args.format == "text" or args.output:
        for row in info["table"]:
            sys.stdout.write(
                f"  beta={row['beta']:<8g} lnY/beta={row['lnY_over_beta']!r}  "
                f"|err|={row['abs_error']:.6e}\n"
            )
        sys.stdout.write(f"  fitted order: {info['fitted_order']:.4f}\n")
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
    if q is None:
        raise EllexError("modes needs --q")
    pairs = _parse_pairs(args.pairs)
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
    payload = {
        "schema": 1,
        "tool_version": __version__,
        "which": table.which,
        "annulus": table.annulus.n_ann,
        "params": _jsonable(table.params),
        "structure_constants": {str(l): _jsonable(g) for l, g in sorted(table.coefficients.items())},
        "raw_coefficients": {str(l): _jsonable(g) for l, g in sorted(table.raw_coefficients.items())},
        "brackets": _jsonable(brackets),
        "antisymmetry_violation": table.antisymmetry_violation(),
    }
    if args.format == "json":
        out = json_bytes(payload)
    elif args.format == "csv":
        lines = ["l,structure_constant,raw_coefficient"]
        for l, g in sorted(table.coefficients.items()):
            lines.append(f"{l},{g!r},{table.raw_coefficients[l]!r}")
        out = ("\n".join(lines) + "\n").encode()
    else:
        lines = [f"structure constants on annulus {table.annulus.n_ann} "
                 f"(radius {table.params['radius']:.6g}, {table.params['nodes']} nodes):"]
        for l, g in sorted(table.coefficients.items()):
            if abs(g) > 1e-12:
                lines.append(f"  g[{l:+d}] = {g!r}")
        for b in brackets:
            lines.append(b["text"])
        out = ("\n".join(lines) + "\n").encode()
    _emit(out, args.output)
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
                        help="truncation tail tolerance (default 1e-15 or ELLEX_DEFAULT_TOL)")
        sp.add_argument("--max-terms", type=int, default=512)
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
    sp.add_argument("--nodes", type=int, default=256)
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
        return args.func(args)
    except EllexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
