"""Named verification suites driving every identity the library implements.

Every suite is a table of ``Identity`` entries built from the config: check
ids, a ``sample(rng, cfg, index)`` that draws a candidate or returns None to
reject it (``index`` counts the candidates that passed so far), and an
``evaluate(cfg, candidate)`` that returns one ``(error, point)`` per check
or raises an ``EllexError`` to reject the point. One runner draws the entries
in table order from one rng seeded per suite. Every candidate, rejected or
not, costs one of ``_TRIES_PER_POINT`` tries per point asked for, and an
exhausted budget raises ``SamplingExhausted`` (exit code 2).

An identity with fixed ``cases`` (``beta-limit``, ``mode-brackets``) has no
sampler: each case is evaluated once, draws nothing from the rng and is
never rejected, so its ``EllexError`` ends the run (exit code 2).

Each ``evaluate`` call runs inside its own ``qseries.point_scope()``, so
the checks of one point form each distinct theta factor once (the exchange
checks evaluate F and Y at several levels of the same x, which share most
of their factors) and nothing is remembered from one point to the next, or
from one run to the next.

A suite that cannot run some configs registers a ``refuse`` check:
rmatrix needs |p| < 1 and mode-brackets a real positive q.  ``run_suites``
calls the checks of every suite it resolved before the first suite runs, so
a refused config costs no suite time and starts no worker.

Under ``parallel = N > 1``, ``run_suites`` sends whole suites to a process
pool of ``min(N, suites, usable CPUs)`` workers and merges the reports in
suite order; a run of one suite stays serial.  Each suite seeds its own rng,
so reports are byte-for-byte those of a serial run.
"""

from __future__ import annotations

import cmath
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, Iterable

from .elliptic import NomeParams
from .errors import DomainError, EllexError, SamplingExhausted, SingularMatrix
from .exchange import (
    CommutingPoint,
    LevelParams,
    check_p_periodicity,
    commuting_F,
    exchange_F,
    exchange_F_iterated,
    exchange_F_negative_by_reciprocity,
    exchange_Y,
    exchange_Y_ratio,
)
from .poisson import (
    ORDER_DEFECT_TOL,
    AnnulusLabel,
    beta_limit_check,
    laurent_modes,
    poisson_series_g,
    poisson_structure_center,
)
from .qseries import TruncationPolicy, near_theta_zero, point_scope, theta, theta_shift_factor
from .report import CheckResult, VerificationReport, merge_reports
from .rmatrix import check_crossing, check_pshift, check_ybe, tau_fn, tau_fn_pochhammer
from .sampler import Generator

__all__ = ["VerifyConfig", "SUITES", "resolve_suites", "run_suite", "run_suites", "list_suites"]

_GRID_REJECT_TOL = 1e-3  # log-radial clearance from zero/pole spirals
_TRIES_PER_POINT = 10  # candidate budget of an identity, per point asked for
_LEVELS = (-3, -2, -1, 1, 2, 3)  # levels m of the exchange checks; shift orders of theta


@dataclass(frozen=True)
class VerifyConfig:
    """Configuration shared by all suites: checked on construction, echoed into reports."""

    seed: int = 7
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    parallel: int = 1
    q: complex | None = None
    p: complex | None = None
    k: int | None = None  # restrict commuting-point checks to one k

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise DomainError(f"--parallel needs at least 1 worker, got {self.parallel}")
        if self.seed < 0:
            raise DomainError(f"--seed must be a non-negative integer, got {self.seed}")
        if self.q is not None and not 0.0 < abs(self.q) < 1.0:
            raise DomainError(f"--q must satisfy 0 < |q| < 1, got {self.q!r}")
        if self.p == 0:
            raise DomainError(f"--p must be nonzero, got {self.p!r}")
        if self.k == 0:
            raise DomainError(f"--k must be a nonzero integer, got {self.k}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "max_terms": self.policy.max_terms,
            "tail_tol": self.policy.tail_tol,
            "parallel": self.parallel,
            "q": self.q,
            "p": self.p,
            "k": self.k,
        }


@dataclass(frozen=True)
class Identity:
    """One family of checks, sampled or at fixed cases; see the module docstring."""

    checks: tuple[str, ...]
    sample: Callable | None  # (rng, cfg, index) -> candidate | None; None with cases
    evaluate: Callable  # (cfg, candidate) -> one (error, point) per check
    tolerance: float
    count: int
    params: dict
    cases: tuple = ()  # fixed candidates, each evaluated once instead of sampling


@dataclass(frozen=True)
class SuiteSpec:
    runner: Callable[[VerifyConfig], VerificationReport]
    description: str
    aliases: tuple[str, ...] = ()
    # raises DomainError for a config this suite cannot run; called by
    # run_suites for every suite it resolved, before any of them runs
    refuse: Callable[[VerifyConfig], None] | None = None


SUITES: dict[str, SuiteSpec] = {}  # filled by @_suite, in definition order


def _suite(
    name: str, description: str, seed_offset: int, aliases: tuple = (),
    refuse: Callable[[VerifyConfig], None] | None = None,
):
    """Register a table of identities, run with the rng seeded at seed + seed_offset."""

    def register(table: Callable) -> Callable:
        SUITES[name] = SuiteSpec(partial(_run_sampled, name, seed_offset, table), description,
                                 aliases, refuse)
        return table

    return register


def _run_sampled(
    suite: str,
    seed_offset: int,
    table: Callable[[VerifyConfig], list[Identity]],
    cfg: VerifyConfig,
) -> VerificationReport:
    t0 = time.perf_counter()  # the first identity's time includes the table build
    rng = Generator(cfg.seed + seed_offset)
    index = 0
    checks: list[CheckResult] = []
    for ident in table(cfg):
        rows: list = []
        for case in ident.cases:  # never rejected: an EllexError ends the run
            with point_scope():
                rows.append(ident.evaluate(cfg, case))
        for _ in range(_TRIES_PER_POINT * ident.count):
            if len(rows) == ident.count:
                break
            candidate = ident.sample(rng, cfg, index)
            if candidate is None:
                continue
            index += 1
            try:
                with point_scope():
                    rows.append(ident.evaluate(cfg, candidate))
            except EllexError:
                continue
        if len(rows) < ident.count:
            raise SamplingExhausted(
                f"{', '.join(ident.checks)}: only {len(rows)} of {ident.count} points "
                f"valid after {_TRIES_PER_POINT * ident.count} candidates"
            )
        t1 = time.perf_counter()
        share = (t1 - t0) / len(ident.checks)  # one clock per identity, split over its checks
        t0 = t1
        for j, check_id in enumerate(ident.checks):
            pairs = [row[j] for row in rows]
            checks.append(_aggregate(check_id, pairs, ident.tolerance, share, ident.params))
    return VerificationReport(suite, checks, cfg.to_dict())


def _fixed(checks: tuple, evaluate: Callable, tolerance: float, params: dict, cases) -> Identity:
    """An identity evaluated once at each of the given cases."""
    cases = tuple(cases)
    return Identity(checks, None, evaluate, tolerance, len(cases), params, cases)


def _aggregate(
    check_id: str,
    pairs: list[tuple[float, dict]],
    tolerance: float,
    wall_time_s: float,
    params: dict,
) -> CheckResult:
    worst_err, worst_params = max(pairs, key=lambda it: it[0])
    return CheckResult(
        check_id=check_id,
        params={**params, "count": len(pairs)},
        max_abs_error=float(worst_err),
        tolerance=float(tolerance),
        passed=bool(worst_err <= tolerance),
        wall_time_s=wall_time_s,
        info={"worst_point": worst_params},
    )


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), 1e-300)


def log_annulus_point(rng: Generator, lo: float, hi: float) -> complex:
    """Random point with log-uniform modulus in [lo, hi], uniform phase."""
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def _sample_x(lo: float, hi: float, q: complex, rng, cfg: VerifyConfig, index: int):
    x = log_annulus_point(rng, lo, hi)
    # every theta factor of F and Y has zeros on x^2 = q^(2j) p^(j') spirals;
    # clearing x^2 from even powers of q covers the worst of them
    return None if near_theta_zero(q * q, x * x, _GRID_REJECT_TOL) else x


def _sample_theta(rng, cfg: VerifyConfig, index: int):
    a = log_annulus_point(rng, 0.05, 0.9)
    x = log_annulus_point(rng, 0.1, 10.0)
    if near_theta_zero(a, x, 1e-4):
        return None
    return a, x, _LEVELS[index % len(_LEVELS)]


def _eval_theta(cfg: VerifyConfig, cand: tuple) -> tuple:
    a, x, s = cand
    pol = cfg.policy
    th = theta(a, x, pol)
    rhs = -th / x
    scale = max(abs(rhs), 1e-300)
    fac = theta_shift_factor(a, s, x) * th
    point = {"a": a, "x": x}
    return (
        (abs(theta(a, a * x, pol) - rhs) / scale, point),
        (abs(theta(a, 1.0 / x, pol) - rhs) / scale, point),
        (abs(theta(a, a**s * x, pol) - fac) / max(abs(fac), 1e-300), {**point, "s": s}),
    )


@_suite("theta", "quasi-periodicity, inversion and integer shift law of theta_a", seed_offset=0)
def _theta_table(cfg: VerifyConfig) -> list[Identity]:
    params = {"|a|": "[0.05,0.9]", "|x|": "[0.1,10]", "zero_clearance": 1e-4, "seed": cfg.seed}
    checks = ("theta-quasiperiodicity", "theta-inversion", "theta-shift-law")
    return [Identity(checks, _sample_theta, _eval_theta, 1e-10, 100, params)]


def _sample_tau(rng, cfg: VerifyConfig, index: int):
    q = cfg.q if cfg.q is not None else log_annulus_point(rng, 0.3, 0.8)
    x = log_annulus_point(rng, 0.5, 2.0)
    q4 = q**4
    if near_theta_zero(q4, q * x * x, 2e-4) or near_theta_zero(q4, q / (x * x), 2e-4):
        return None
    return q, x


def _eval_tau(cfg: VerifyConfig, cand: tuple) -> tuple:
    q, x = cand
    err = _rel(tau_fn(x, q, cfg.policy), tau_fn_pochhammer(x, q, cfg.policy))
    return ((err, {"q": q, "x": x}),)


@_suite("tau-dual", "agreement of the theta-quotient and product forms of tau", 1, ("tau",))
def _tau_table(cfg: VerifyConfig) -> list[Identity]:
    checks = ("tau-two-representations",)
    return [Identity(checks, _sample_tau, _eval_tau, 1e-11, 50, {"seed": cfg.seed})]


def _sample_rmatrix(rng, cfg: VerifyConfig, index: int) -> tuple:
    p = cfg.p if cfg.p is not None else rng.uniform(0.05, 0.6)
    if cfg.q is not None:
        q = cfg.q
    else:
        mag = rng.uniform(0.3, 0.7)
        # mostly the negative-real regime of the elliptic parametrization,
        # with some fully complex q for coverage
        q = mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) if index % 5 == 0 else -mag
    x = log_annulus_point(rng, 0.7, 1.4)
    y = log_annulus_point(rng, 0.7, 1.4)
    return complex(p), complex(q), x, y


def _well_posed(
    point: dict, err: float, scale: float, max_scale: float,
    cond: float = 0.0, max_cond: float = math.inf,
) -> tuple:
    # residuals of well-posed points only: near a determinant-zero spiral the
    # inversion amplifies roundoff by cond * scale regardless of truncation,
    # and where every entry is tiny an absolute residual says nothing
    if cond > max_cond or scale > max_scale or scale < 1.0 / max_scale:
        raise SingularMatrix("ill-posed point")
    return ((err, point),)


def _eval_crossing(cfg: VerifyConfig, cand: tuple) -> tuple:
    p, q, x, _y = cand
    err, scale, cond = check_crossing(x, NomeParams(p, q), cfg.policy)
    return _well_posed({"x": x, "p": p, "q": q}, err, scale, 1e2, cond, 1e3)


def _eval_pshift(cfg: VerifyConfig, cand: tuple) -> tuple:
    p, q, x, _y = cand
    err, scale = check_pshift(x, NomeParams(p, q), cfg.policy)
    return _well_posed({"x": x, "p": p, "q": q}, err, scale, 1e3)


def _eval_ybe(cfg: VerifyConfig, cand: tuple) -> tuple:
    p, q, x, y = cand
    err, scale = check_ybe(x, y, NomeParams(p, q), cfg.policy)
    return _well_posed({"x": x, "y": y, "p": p, "q": q}, err, scale, 50.0)


def _refuse_rmatrix(cfg: VerifyConfig) -> None:
    # R+ needs a convergent nome; the exchange suites take any p != 0
    if cfg.p is not None and not abs(cfg.p) < 1.0:
        raise DomainError(f"the rmatrix suite needs |p| < 1, got p = {cfg.p!r}")


@_suite(
    "rmatrix", "crossing symmetry, nome-shift covariance and Yang-Baxter for R+", 2,
    ("crossing",), _refuse_rmatrix,
)
def _rmatrix_table(cfg: VerifyConfig) -> list[Identity]:
    params = {"|p|<=0.7": True, "|q|<=0.7": True, "zero_clearance": _GRID_REJECT_TOL,
              "seed": cfg.seed}
    return [
        Identity(("crossing-symmetry",), _sample_rmatrix, _eval_crossing, 1e-9, 50, params),
        Identity(("nome-shift-covariance",), _sample_rmatrix, _eval_pshift, 1e-9, 50, params),
        Identity(("yang-baxter",), _sample_rmatrix, _eval_ybe, 1e-9, 20, params),
    ]


def _exchange_table(
    cfg: VerifyConfig, names: tuple, evaluate: Callable, tol: float, count: int, levels: tuple
) -> list[Identity]:
    """One identity per level m at the nome (cfg.p, cfg.q), by default (0.18, -0.45)."""
    p = cfg.p if cfg.p is not None else 0.18
    q = cfg.q if cfg.q is not None else -0.45
    nome = NomeParams(p, q)
    return [
        Identity(
            tuple(f"{name}(m={m:+d})" for name in names), partial(_sample_x, 0.6, 1.5, q),
            partial(evaluate, LevelParams(m, nome)), tol, count, {"p": p, "q": q, "m": m},
        )
        for m in levels
    ]


def _eval_f_two_path(level: LevelParams, cfg: VerifyConfig, x: complex) -> list:
    closed = exchange_F(level, x, cfg.policy)
    rows = [(_rel(closed, exchange_F_iterated(level, x, cfg.policy)), {"x": x})]
    if level.m < 0:
        other = exchange_F_negative_by_reciprocity(level, x, cfg.policy)
        rows.append((_rel(closed, other), {"x": x}))
    return rows


@_suite(
    "f-two-path", "closed form of F(m, x) vs the iterated shift-factor product", 3, ("theorem4",)
)
def _f_two_path_table(cfg: VerifyConfig) -> list[Identity]:
    # the reciprocity path exists for negative levels only
    names = ("f-two-path", "f-reciprocity")
    negative = _exchange_table(cfg, names, _eval_f_two_path, 1e-10, 20, (-3, -2, -1))
    return negative + _exchange_table(cfg, names[:1], _eval_f_two_path, 1e-10, 20, (1, 2, 3))


def _eval_y_two_path(level: LevelParams, cfg: VerifyConfig, x: complex) -> tuple:
    closed = exchange_Y(level, x, cfg.policy)
    return ((_rel(closed, exchange_Y_ratio(level, x, cfg.policy)), {"x": x}),)


@_suite("y-two-path", "closed form of Y vs the F-ratio construction", 4, ("theorem5",))
def _y_two_path_table(cfg: VerifyConfig) -> list[Identity]:
    return _exchange_table(cfg, ("y-two-path",), _eval_y_two_path, 1e-9, 20, _LEVELS)


def _eval_feigin_frenkel(level: LevelParams, cfg: VerifyConfig, x: complex) -> tuple:
    pol, q = cfg.policy, level.nome.q
    y0 = exchange_Y(level, x, pol)
    scale = max(1.0, abs(y0))
    e1 = abs(exchange_Y(level, x * q * q, pol) - y0) / scale
    e2 = abs(exchange_Y(level, x * q, pol) - exchange_Y(level, 1.0 / x, pol)) / scale
    return ((e1, {"x": x}), (e2, {"x": x}))


@_suite("feigin-frenkel", "Y(x q^2) = Y(x) and Y(x q) = Y(1/x)", seed_offset=5)
def _feigin_frenkel_table(cfg: VerifyConfig) -> list[Identity]:
    names = ("y-q2-shift", "y-q-inversion")
    return _exchange_table(cfg, names, _eval_feigin_frenkel, 1e-10, 50, (1, -2))


def _sample_commuting(rng, cfg: VerifyConfig, index: int):
    q = cfg.q if cfg.q is not None else complex(rng.uniform(0.4, 0.75))
    x = _sample_x(0.7, 1.4, q, rng, cfg, index)
    return None if x is None else (q, x)


def _eval_commuting(cp: CommutingPoint, cfg: VerifyConfig, cand: tuple) -> tuple:
    q, x = cand
    pol = cfg.policy
    nome = cp.exact_nome(q)
    worst_f, worst_y = 0.0, 0.0
    for m in _LEVELS:
        level = LevelParams(m, nome)
        f = exchange_F(level, x, pol)
        ref = commuting_F(m, cp, x, q, pol)
        err = abs(f - ref) if cp.parity == "odd" else _rel(f, ref)
        worst_f = max(worst_f, err)
        worst_y = max(worst_y, abs(exchange_Y(level, x, pol) - 1.0))
    point = {"q": q, "x": x}
    return ((worst_f, point), (worst_y, point))


@_suite(
    "commuting-points",
    "F = 1 at p = q^(2k) for odd k, even-k closed form, and Y = 1",
    6,
    ("theorem6",),
)
def _commuting_table(cfg: VerifyConfig) -> list[Identity]:
    table = []
    for k in (1, 3, -1, -3, 2, -2) if cfg.k is None else (cfg.k,):
        cp = CommutingPoint(k)
        label = "f-equals-one" if cp.parity == "odd" else "f-even-closed-form"
        checks = (f"{label}(k={k:+d})", f"y-equals-one(k={k:+d})")
        params = {"k": k, "parity": cp.parity, "m": "[-3..3]\\{0}"}
        table.append(
            Identity(checks, _sample_commuting, partial(_eval_commuting, cp), 1e-10, 10, params)
        )
    return table


def _sample_p_shift(rng, cfg: VerifyConfig, index: int):
    p = cfg.p if cfg.p is not None else complex(rng.uniform(0.05, 0.2))
    if cfg.q is not None:
        q = cfg.q
    else:
        mag = rng.uniform(0.4, 0.7)
        q = complex(-mag) if index % 2 else complex(mag)
    x = _sample_x(0.7, 1.4, q, rng, cfg, index)
    return None if x is None else ((1, -2, 2)[index % 3], p, q, x)


def _eval_p_shift(cfg: VerifyConfig, cand: tuple) -> tuple:
    m, p, q, x = cand
    level = LevelParams(m, NomeParams(p, q))
    shifted = LevelParams(m, NomeParams(p * q**4, q))
    f_err = check_p_periodicity(level, x, cfg.policy)
    y_err = _rel(exchange_Y(level, x, cfg.policy), exchange_Y(shifted, x, cfg.policy))
    point = {"m": m, "p": p, "q": q, "x": x}
    return ((f_err, point), (y_err, point))


@_suite("p-periodicity", "invariance of F and Y under the nome shift p -> p q^4", 7, ("remark3",))
def _p_periodicity_table(cfg: VerifyConfig) -> list[Identity]:
    checks = ("f-invariant-under-p-shift", "y-invariant-under-p-shift")
    return [Identity(checks, _sample_p_shift, _eval_p_shift, 1e-10, 20, {})]


def _eval_beta_limit(cfg: VerifyConfig, case: tuple) -> tuple:
    defect, ladder = beta_limit_check(*case, (1e-2, 1e-3), cfg.policy)
    coarse, fine = ladder["table"]
    ratio = coarse["abs_error"] / fine["abs_error"] if fine["abs_error"] else math.inf
    return ((defect, {
        "target": ladder["target"], "error_ratio": ratio,
        "lnY_over_beta": coarse["lnY_over_beta"], "lnY_over_beta_fine": fine["lnY_over_beta"],
        "err_beta": coarse["abs_error"], "err_beta_over_10": fine["abs_error"],
    }),)


@_suite(
    "beta-limit",
    "first-order approach of ln(Y)/beta to the k-labeled structure function",
    9, ("theorem7", "limit"),
)
def _beta_limit_table(cfg: VerifyConfig) -> list[Identity]:
    table = []
    for m, k, q, x in ((1, 1, 0.5, 1.4), (1, 2, 0.5, 1.4), (2, 1, 0.45, 1.3), (-1, 1, 0.5, 1.25)):
        q = cfg.q if cfg.q is not None else q
        params = {"m": m, "k": k, "beta": 1e-2, "q": q, "x": complex(x)}
        table.append(_fixed((f"beta-limit(m={m:+d},k={k:+d})",), _eval_beta_limit,
                            ORDER_DEFECT_TOL, params, [(m, k, q, x)]))
    return table


def _eval_coincidence(q: complex, cfg: VerifyConfig, x: complex) -> tuple:
    lhs = poisson_structure_center(x, q, cfg.policy)
    rhs = 2.0 * cmath.log(q) * poisson_series_g(x, q, cfg.policy)
    return ((abs(lhs - rhs) / max(1.0, abs(lhs)), {"x": x}),)


@_suite("coincidence", "central bracket equals 2 ln(q) times the series g", seed_offset=8)
def _coincidence_table(cfg: VerifyConfig) -> list[Identity]:
    return [
        Identity(
            (f"center-vs-series(q={q!r})",), partial(_sample_x, 0.6, 1.6, q),
            partial(_eval_coincidence, q), 1e-8, 50, {"q": q},
        )
        for q in ([cfg.q] if cfg.q is not None else [0.45 + 0j, 0.3 * cmath.exp(0.4j)])
    ]


def _expansion_errors(raw: dict, pref: float, q: float, lmax: int, negative: bool) -> list:
    # closed-form raw coefficients on annulus 0 (per even l = 2j, j >= 1):
    #   g_0 = 1, g_{2j} = 2 q^(2j)/(1 + q^(2j)), g_{-2j} = 2/(1 + q^(2j));
    # g is even in x, so every odd g_l vanishes (error relative to |pref|)
    errs = [(abs(raw[0] / pref - 1.0), {"l": 0})]
    for j in range(1, lmax // 2 + 1):
        expect_p = 2.0 * q ** (2 * j) / (1.0 + q ** (2 * j))
        errs.append((abs(raw[2 * j] / pref - expect_p) / expect_p, {"l": 2 * j}))
        if negative:
            expect_m = 2.0 / (1.0 + q ** (2 * j))
            errs.append((abs(raw[-2 * j] / pref - expect_m) / expect_m, {"l": -2 * j}))
    for l in range(1, lmax + 1, 2):
        for odd in (l, -l) if negative else (l,):
            errs.append((abs(raw[odd]) / abs(pref), {"l": odd}))
    return errs


def _precomputed(cfg: VerifyConfig, row: tuple) -> tuple:
    return (row,)


def _refuse_mode_brackets(cfg: VerifyConfig) -> None:
    if cfg.q is not None and (cfg.q.imag != 0 or cfg.q.real <= 0):
        raise DomainError("mode-bracket suite uses real positive q")


@_suite(
    "mode-brackets",
    "contour structure constants: expansions, antisymmetry, residue steps", 10, ("modes",),
    _refuse_mode_brackets,
)
def _mode_brackets_table(cfg: VerifyConfig) -> list[Identity]:
    # the four contour tables are built once; each check's rows are its cases
    q = cfg.q.real if cfg.q is not None else 0.5
    m, k = 1, 1
    pref = 2.0 * k * m * math.log(q)
    lmax = 6
    modes = partial(laurent_modes, q=q, l_max=lmax, quadrature_points=128, policy=cfg.policy)
    raw = {n: modes("klimit", annulus=AnnulusLabel(n), m=m, k=k).raw_coefficients
           for n in (0, 1, 2)}
    # the central bracket carries the same coefficients scaled by its own
    # normalization 2 ln q, so the annulus-0 expansion check applies verbatim
    center0 = modes("center", annulus=AnnulusLabel(0)).raw_coefficients
    geo = _expansion_errors(raw[0], pref, q, lmax, negative=True)
    geo_center = _expansion_errors(center0, 2.0 * math.log(q), q, lmax, negative=False)

    # functional antisymmetry g(1/x) = -g(x) ties annulus n to its mirror 1-n:
    # raw_n[l] = -raw_{1-n}[-l], checked across the (0, 1) pair
    mirror = max(abs(raw[0][l] + raw[1][-l]) / max(1.0, abs(raw[0][l])) for l in raw[0])

    # crossing the pole circle |x| = |q|^n changes raw coefficients by the
    # analytic residue sum: pref * (-1)^n q^(-n l) (1 + (-1)^l)
    res_pairs: list[tuple[float, dict]] = []
    for n in (0, 1):
        for l in range(-lmax, lmax + 1):
            expected = pref * (-1.0) ** n * q ** (-n * l) * (1.0 + (-1.0) ** l)
            got = raw[n][l] - raw[n + 1][l]
            res_pairs.append(
                (abs(got - expected) / max(1.0, abs(expected)), {"n": n, "l": l})
            )

    meta = {"q": q, "m": m, "k": k, "lmax": lmax}
    return [
        _fixed(("laurent-geometric-expansion",), _precomputed, 1e-8, meta, geo),
        _fixed(("laurent-antisymmetry",), _precomputed, 1e-10, meta,
               [(mirror, {"annuli": "(0,1) mirror pair"})]),
        _fixed(("laurent-residue-step",), _precomputed, 1e-8, meta, res_pairs),
        _fixed(("laurent-center-expansion",), _precomputed, 1e-8, meta, geo_center),
    ]


_ALIAS_INDEX = {alias: name for name, spec in SUITES.items() for alias in spec.aliases}


def resolve_suites(names: Iterable[str]) -> list[str]:
    out: list[str] = []
    for raw in names:
        name = raw.strip().lower()
        name = _ALIAS_INDEX.get(name, name)
        if name != "all" and name not in SUITES:
            raise DomainError(f"unknown suite {raw!r}; see 'verify --list'")
        out += [n for n in (SUITES if name == "all" else [name]) if n not in out]
    return out


def _refuse(names: list[str], cfg: VerifyConfig) -> None:
    for name in names:
        if SUITES[name].refuse is not None:
            SUITES[name].refuse(cfg)


def run_suite(name: str, cfg: VerifyConfig) -> VerificationReport:
    _refuse([name], cfg)
    return SUITES[name].runner(cfg)


def run_suites(names: Iterable[str], cfg: VerifyConfig) -> VerificationReport:
    """The suites' reports merged in suite order; a config one of them
    refuses raises DomainError before any suite runs or any worker starts."""
    resolved = resolve_suites(names)
    _refuse(resolved, cfg)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(cfg.parallel, len(resolved), cpus)
    if workers <= 1:
        reports = [run_suite(n, cfg) for n in resolved]
    else:
        # imported here: the pool's multiprocessing modules add ~2 MB to every
        # serial process that imports this module
        from concurrent.futures import ProcessPoolExecutor

        # suites seed their own rngs, so each is one task; the worker looks
        # the runner up by name and the reports come back in suite order.
        # Under fork every worker starts at the first submit, so workers
        # beyond the suites or the CPUs would only cost memory.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_suite, resolved, repeat(cfg)))
    if len(reports) == 1:
        return reports[0]
    return merge_reports(reports, "+".join(resolved), {"suites": resolved, **cfg.to_dict()})


def list_suites() -> str:
    lines = []
    for name, spec in SUITES.items():
        alias = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        lines.append(f"{name:<18} {spec.description}{alias}")
    return "\n".join(lines) + "\n"
