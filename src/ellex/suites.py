"""Named verification suites driving every identity the library implements.

Each suite samples a deterministic grid (seeded), evaluates one family of
identities, and aggregates the worst residual per check. Suites are pure
functions of their configuration; grid evaluation may run across processes
with results merged in candidate order, so reports are reproducible
byte-for-byte for a fixed configuration.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import __version__
from ._grids import log_annulus_point, make_rng
from .elliptic import NomeParams
from .errors import (
    DomainError,
    NearSingularity,
    SamplingExhausted,
    SingularMatrix,
    TruncationExceeded,
)
from .exchange import (
    CommutingPoint,
    LevelParams,
    commuting_F,
    exchange_F,
    exchange_F_iterated,
    exchange_F_negative_by_reciprocity,
    exchange_Y,
    exchange_Y_ratio,
)
from .poisson import (
    AnnulusLabel,
    BetaLimitRequest,
    beta_limit_check,
    laurent_modes,
    poisson_series_g,
    poisson_structure_center,
)
from .qseries import TruncationPolicy, near_theta_zero, theta, theta_shift_factor
from .report import CheckResult, VerificationReport, merge_reports
from .rmatrix import check_crossing, check_pshift, check_ybe

__all__ = ["VerifyConfig", "SUITES", "resolve_suites", "run_suite", "run_suites", "list_suites"]

_GRID_REJECT_TOL = 1e-3  # log-radial clearance from zero/pole spirals
_TRIES_PER_POINT = 10  # candidate budget of _collect, per point asked for


@dataclass(frozen=True)
class VerifyConfig:
    """Configuration shared by all suites; echoed verbatim into reports."""

    seed: int = 7
    policy: TruncationPolicy = field(default_factory=TruncationPolicy)
    parallel: int = 1
    q: complex | None = None
    p: complex | None = None
    k: int | None = None  # restrict commuting-point checks to one k

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


def _pmap(fn: Callable, items: list, degree: int) -> list:
    if degree <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # imported here: the pool's multiprocessing modules add ~2 MB to every
    # serial process that imports this module
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=degree) as ex:
        return list(ex.map(fn, items))


def _collect(
    check_id: str,
    worker: Callable,
    candidates: Iterator,
    count: int,
    degree: int,
) -> list:
    """Evaluate candidates until ``count`` succeed; order-deterministic.

    Raises SamplingExhausted once ``_TRIES_PER_POINT * count`` candidates
    have been tried without ``count`` successes.
    """
    results: list = []
    budget = _TRIES_PER_POINT * count
    while len(results) < count:
        if budget == 0:
            raise SamplingExhausted(
                f"{check_id}: only {len(results)} of {count} points valid "
                f"after {_TRIES_PER_POINT * count} candidates"
            )
        size = min(count - len(results), budget)
        budget -= size
        batch = [next(candidates) for _ in range(size)]
        for out in _pmap(worker, batch, degree):
            if out is not None:
                results.append(out)
    return results


def _aggregate(
    check_id: str,
    pairs: list[tuple[float, dict]],
    tolerance: float,
    t0: float,
    params: dict,
) -> CheckResult:
    worst_err, worst_params = max(pairs, key=lambda it: it[0])
    return CheckResult(
        check_id=check_id,
        params={**params, "count": len(pairs)},
        max_abs_error=float(worst_err),
        tolerance=float(tolerance),
        passed=bool(worst_err <= tolerance),
        wall_time_s=time.perf_counter() - t0,
        info={"worst_point": worst_params},
    )


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), 1e-300)


# ---------------------------------------------------------------------------
# theta identity suite


def suite_theta(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed)
    pol = cfg.policy
    shift_orders = (-3, -2, -1, 1, 2, 3)
    quasi: list[tuple[float, dict]] = []
    invert: list[tuple[float, dict]] = []
    shift: list[tuple[float, dict]] = []
    i = 0
    while len(quasi) < 100:
        a = log_annulus_point(rng, 0.05, 0.9)
        x = log_annulus_point(rng, 0.1, 10.0)
        if near_theta_zero(a, x, 1e-4):
            continue
        th = theta(a, x, pol)
        rhs = -th / x
        scale = max(abs(rhs), 1e-300)
        point = {"a": a, "x": x}
        lhs = theta(a, a * x, pol)
        quasi.append((abs(lhs - rhs) / scale, point))
        invert.append((abs(theta(a, 1.0 / x, pol) - rhs) / scale, point))
        s = shift_orders[i % len(shift_orders)]
        i += 1
        fac = theta_shift_factor(a, s, x) * th
        err = abs(theta(a, a**s * x, pol) - fac) / max(abs(fac), 1e-300)
        shift.append((err, {**point, "s": s}))
    params = {"|a|": "[0.05,0.9]", "|x|": "[0.1,10]", "zero_clearance": 1e-4, "seed": cfg.seed}
    return VerificationReport(
        "theta",
        [
            _aggregate("theta-quasiperiodicity", quasi, 1e-10, t0, params),
            _aggregate("theta-inversion", invert, 1e-10, t0, params),
            _aggregate("theta-shift-law", shift, 1e-10, t0, params),
        ],
        cfg.to_dict(),
        __version__,
    )


# ---------------------------------------------------------------------------
# tau dual representation


def suite_tau_dual(cfg: VerifyConfig) -> VerificationReport:
    from .rmatrix import tau_fn, tau_fn_pochhammer

    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 1)
    pol = cfg.policy
    pairs: list[tuple[float, dict]] = []
    while len(pairs) < 50:
        q = cfg.q if cfg.q is not None else log_annulus_point(rng, 0.3, 0.8)
        x = log_annulus_point(rng, 0.5, 2.0)
        q4 = q**4
        if near_theta_zero(q4, q * x * x, 2e-4) or near_theta_zero(q4, q / (x * x), 2e-4):
            continue
        v1 = tau_fn(x, q, pol)
        v2 = tau_fn_pochhammer(x, q, pol)
        pairs.append((_rel(v1, v2), {"q": q, "x": x}))
    return VerificationReport(
        "tau-dual",
        [_aggregate("tau-two-representations", pairs, 1e-11, t0, {"seed": cfg.seed})],
        cfg.to_dict(),
        __version__,
    )


# ---------------------------------------------------------------------------
# R-matrix identity suite (crossing, nome shift, Yang-Baxter)


def _rmatrix_candidate(rng, cfg: VerifyConfig, idx: int) -> tuple:
    p = cfg.p if cfg.p is not None else rng.uniform(0.05, 0.6)
    if cfg.q is not None:
        q = cfg.q
    else:
        mag = rng.uniform(0.3, 0.7)
        # mostly the negative-real regime of the elliptic parametrization,
        # with some fully complex q for coverage
        q = mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) if idx % 5 == 0 else -mag
    x = log_annulus_point(rng, 0.7, 1.4)
    y = log_annulus_point(rng, 0.7, 1.4)
    return (complex(p), complex(q), x, y, cfg.policy.max_terms, cfg.policy.tail_tol)


def _w_crossing(args: tuple):
    p, q, x, _y, max_terms, tail_tol = args
    try:
        r = check_crossing(x, NomeParams(p, q), TruncationPolicy(max_terms, tail_tol))
    except (NearSingularity, SingularMatrix, TruncationExceeded, DomainError):
        return None
    # residuals of well-posed points only: near a determinant-zero spiral the
    # inversion amplifies roundoff by cond * scale regardless of truncation
    if r.info["cond"] > 1e3 or r.info["scale"] > 1e2:
        return None
    return (r.max_abs_error, r.params)


def _w_pshift(args: tuple):
    p, q, x, _y, max_terms, tail_tol = args
    try:
        r = check_pshift(x, NomeParams(p, q), TruncationPolicy(max_terms, tail_tol))
    except (NearSingularity, SingularMatrix, TruncationExceeded, DomainError):
        return None
    if r.info["scale"] > 1e3:
        return None
    return (r.max_abs_error, r.params)


def _w_ybe(args: tuple):
    p, q, x, y, max_terms, tail_tol = args
    try:
        r = check_ybe(x, y, NomeParams(p, q), TruncationPolicy(max_terms, tail_tol))
    except (NearSingularity, SingularMatrix, TruncationExceeded, DomainError):
        return None
    if r.info["scale"] > 50.0:
        return None
    return (r.max_abs_error, r.params)


def suite_rmatrix(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 2)
    counter = iter(range(10**9))

    def stream():
        while True:
            yield _rmatrix_candidate(rng, cfg, next(counter))

    cand = stream()
    crossing = _collect("crossing-symmetry", _w_crossing, cand, 50, cfg.parallel)
    pshift = _collect("nome-shift-covariance", _w_pshift, cand, 50, cfg.parallel)
    ybe = _collect("yang-baxter", _w_ybe, cand, 20, cfg.parallel)
    params = {"|p|<=0.7": True, "|q|<=0.7": True, "zero_clearance": _GRID_REJECT_TOL, "seed": cfg.seed}
    return VerificationReport(
        "rmatrix",
        [
            _aggregate("crossing-symmetry", crossing, 1e-9, t0, params),
            _aggregate("nome-shift-covariance", pshift, 1e-9, t0, params),
            _aggregate("yang-baxter", ybe, 1e-9, t0, params),
        ],
        cfg.to_dict(),
        __version__,
    )


# ---------------------------------------------------------------------------
# exchange-function suites


def _exchange_grid(rng, q: complex, count: int) -> list[complex]:
    pts: list[complex] = []
    q2 = q * q
    while len(pts) < count:
        x = log_annulus_point(rng, 0.6, 1.5)
        # every theta factor of F and Y has zeros on x^2 = q^(2j) p^(j') spirals;
        # clearing x^2 from even powers of q covers the worst of them
        if near_theta_zero(q2, x * x, _GRID_REJECT_TOL):
            continue
        pts.append(x)
    return pts


def suite_f_two_path(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 3)
    pol = cfg.policy
    p = cfg.p if cfg.p is not None else 0.18
    q = cfg.q if cfg.q is not None else -0.45
    nome = NomeParams(p, q)
    checks = []
    for m in (-3, -2, -1, 1, 2, 3):
        level = LevelParams(m, nome)
        pairs: list[tuple[float, dict]] = []
        recip: list[tuple[float, dict]] = []
        for x in _exchange_grid(rng, q, 20):
            try:
                closed = exchange_F(level, x, pol)
                iterated = exchange_F_iterated(level, x, pol)
            except (NearSingularity, TruncationExceeded):
                continue
            pairs.append((_rel(closed, iterated), {"x": x}))
            if m < 0:
                other = exchange_F_negative_by_reciprocity(level, x, pol)
                recip.append((_rel(closed, other), {"x": x}))
        checks.append(
            _aggregate(f"f-two-path(m={m:+d})", pairs, 1e-10, t0, {"p": p, "q": q, "m": m})
        )
        if recip:
            checks.append(
                _aggregate(
                    f"f-reciprocity(m={m:+d})", recip, 1e-10, t0, {"p": p, "q": q, "m": m}
                )
            )
    return VerificationReport("f-two-path", checks, cfg.to_dict(), __version__)


def suite_y_two_path(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 4)
    pol = cfg.policy
    p = cfg.p if cfg.p is not None else 0.18
    q = cfg.q if cfg.q is not None else -0.45
    nome = NomeParams(p, q)
    checks = []
    for m in (-3, -2, -1, 1, 2, 3):
        level = LevelParams(m, nome)
        pairs: list[tuple[float, dict]] = []
        for x in _exchange_grid(rng, q, 20):
            try:
                closed = exchange_Y(level, x, pol)
                ratio = exchange_Y_ratio(level, x, pol)
            except (NearSingularity, TruncationExceeded):
                continue
            pairs.append((_rel(closed, ratio), {"x": x}))
        checks.append(
            _aggregate(f"y-two-path(m={m:+d})", pairs, 1e-9, t0, {"p": p, "q": q, "m": m})
        )
    return VerificationReport("y-two-path", checks, cfg.to_dict(), __version__)


def suite_feigin_frenkel(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 5)
    pol = cfg.policy
    p = cfg.p if cfg.p is not None else 0.18
    q = cfg.q if cfg.q is not None else -0.45
    nome = NomeParams(p, q)
    checks = []
    for m in (1, -2):
        level = LevelParams(m, nome)
        shift_pairs: list[tuple[float, dict]] = []
        invert_pairs: list[tuple[float, dict]] = []
        for x in _exchange_grid(rng, q, 50):
            try:
                y0 = exchange_Y(level, x, pol)
                scale = max(1.0, abs(y0))
                e1 = abs(exchange_Y(level, x * q * q, pol) - y0) / scale
                e2 = abs(exchange_Y(level, x * q, pol) - exchange_Y(level, 1.0 / x, pol)) / scale
            except (NearSingularity, TruncationExceeded):
                continue
            shift_pairs.append((e1, {"x": x}))
            invert_pairs.append((e2, {"x": x}))
        meta = {"p": p, "q": q, "m": m}
        checks.append(_aggregate(f"y-q2-shift(m={m:+d})", shift_pairs, 1e-10, t0, meta))
        checks.append(_aggregate(f"y-q-inversion(m={m:+d})", invert_pairs, 1e-10, t0, meta))
    return VerificationReport("feigin-frenkel", checks, cfg.to_dict(), __version__)


def suite_commuting_points(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 6)
    pol = cfg.policy
    checks = []
    k_values = (1, 3, -1, -3, 2, -2) if cfg.k is None else (cfg.k,)
    for k in k_values:
        cp = CommutingPoint(k)
        f_pairs: list[tuple[float, dict]] = []
        y_pairs: list[tuple[float, dict]] = []
        while len(f_pairs) < 10:
            q = cfg.q if cfg.q is not None else complex(rng.uniform(0.4, 0.75))
            x = log_annulus_point(rng, 0.7, 1.4)
            if near_theta_zero(q * q, x * x, _GRID_REJECT_TOL):
                continue
            nome = cp.exact_nome(q)
            point = {"q": q, "x": x}
            worst_f, worst_y = 0.0, 0.0
            try:
                for m in (-3, -2, -1, 1, 2, 3):
                    level = LevelParams(m, nome)
                    f = exchange_F(level, x, pol)
                    ref = commuting_F(m, cp, x, q, pol)
                    err = abs(f - ref) if cp.parity == "odd" else _rel(f, ref)
                    worst_f = max(worst_f, err)
                    worst_y = max(worst_y, abs(exchange_Y(level, x, pol) - 1.0))
            except (NearSingularity, TruncationExceeded):
                continue
            f_pairs.append((worst_f, point))
            y_pairs.append((worst_y, point))
        meta = {"k": k, "parity": cp.parity, "m": "[-3..3]\\{0}"}
        label = "f-equals-one" if cp.parity == "odd" else "f-even-closed-form"
        checks.append(_aggregate(f"{label}(k={k:+d})", f_pairs, 1e-10, t0, meta))
        checks.append(_aggregate(f"y-equals-one(k={k:+d})", y_pairs, 1e-10, t0, meta))
    return VerificationReport("commuting-points", checks, cfg.to_dict(), __version__)


def suite_p_periodicity(cfg: VerifyConfig) -> VerificationReport:
    from .exchange import check_p_periodicity

    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 7)
    pol = cfg.policy
    f_pairs: list[tuple[float, dict]] = []
    y_pairs: list[tuple[float, dict]] = []
    i = 0
    while len(f_pairs) < 20:
        p = cfg.p if cfg.p is not None else complex(rng.uniform(0.05, 0.2))
        if cfg.q is not None:
            q = cfg.q
        else:
            mag = rng.uniform(0.4, 0.7)
            q = complex(-mag) if i % 2 else complex(mag)
        x = log_annulus_point(rng, 0.7, 1.4)
        if near_theta_zero(q * q, x * x, _GRID_REJECT_TOL):
            continue
        m = (1, -2, 2)[i % 3]
        i += 1
        if abs(p * q**4) >= 1.0:
            continue
        nome = NomeParams(p, q)
        level = LevelParams(m, nome)
        shifted = LevelParams(m, NomeParams(p * q**4, q, allow_p_outside_disk=True))
        try:
            res = check_p_periodicity(level, x, pol)
            y0 = exchange_Y(level, x, pol)
            y1 = exchange_Y(shifted, x, pol)
        except (NearSingularity, TruncationExceeded):
            continue
        f_pairs.append((res.max_abs_error, {"m": m, "p": p, "q": q, "x": x}))
        y_pairs.append((_rel(y0, y1), {"m": m, "p": p, "q": q, "x": x}))
    return VerificationReport(
        "p-periodicity",
        [
            _aggregate("f-invariant-under-p-shift", f_pairs, 1e-10, t0, {}),
            _aggregate("y-invariant-under-p-shift", y_pairs, 1e-10, t0, {}),
        ],
        cfg.to_dict(),
        __version__,
    )


def suite_beta_limit(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    pol = cfg.policy
    cases = [
        (1, 1, 0.5, 1.4),
        (1, 2, 0.5, 1.4),
        (2, 1, 0.45, 1.3),
        (-1, 1, 0.5, 1.25),
    ]
    checks = []
    for m, k, q, x in cases:
        q = cfg.q if cfg.q is not None else q
        req = BetaLimitRequest(m=m, k=k, beta=1e-2, q=q)
        res = beta_limit_check(req, x, pol)
        res.check_id = f"beta-limit(m={m:+d},k={k:+d})"
        checks.append(res)
    return VerificationReport("beta-limit", checks, cfg.to_dict(), __version__)


def suite_coincidence(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    rng = make_rng(cfg.seed + 8)
    pol = cfg.policy
    q_list = [cfg.q] if cfg.q is not None else [0.45 + 0j, 0.3 * cmath.exp(0.4j)]
    checks = []
    for q in q_list:
        x_ref = 1.37
        norm = poisson_structure_center(x_ref, q, pol) / poisson_series_g(x_ref, q, pol)
        pairs: list[tuple[float, dict]] = []
        while len(pairs) < 50:
            x = log_annulus_point(rng, 0.6, 1.6)
            if near_theta_zero(q * q, x * x, _GRID_REJECT_TOL):
                continue
            lhs = poisson_structure_center(x, q, pol)
            rhs = norm * poisson_series_g(x, q, pol)
            pairs.append((abs(lhs - rhs) / max(1.0, abs(lhs)), {"x": x}))
        checks.append(
            _aggregate(
                f"center-vs-series(q={q!r})",
                pairs,
                1e-8,
                t0,
                {"q": q, "x_ref": x_ref, "norm": norm, "norm_over_2lnq": norm / (2 * cmath.log(q))},
            )
        )
    return VerificationReport("coincidence", checks, cfg.to_dict(), __version__)


def suite_mode_brackets(cfg: VerifyConfig) -> VerificationReport:
    t0 = time.perf_counter()
    pol = cfg.policy
    q = cfg.q if cfg.q is not None else 0.5
    if abs(complex(q).imag) > 0 or complex(q).real <= 0:
        raise DomainError("mode-bracket suite uses real positive q")
    q = complex(q).real
    m, k = 1, 1
    pref = 2.0 * k * m * math.log(q)
    lmax = 6
    tables = {
        n: laurent_modes(
            "klimit",
            q=q,
            annulus=AnnulusLabel(n),
            l_range=(-lmax, lmax),
            quadrature_points=128,
            m=m,
            k=k,
            policy=pol,
        )
        for n in (0, 1, 2)
    }

    # closed-form raw coefficients on annulus 0 (per even l = 2j, j >= 1):
    #   g_0 = 1, g_{2j} = 2 q^(2j)/(1 + q^(2j)), g_{-2j} = 2/(1 + q^(2j))
    geo: list[tuple[float, dict]] = []
    raw0 = tables[0].raw_coefficients
    geo.append((abs(raw0[0] / pref - 1.0), {"l": 0}))
    for j in range(1, lmax // 2 + 1):
        expect_p = 2.0 * q ** (2 * j) / (1.0 + q ** (2 * j))
        expect_m = 2.0 / (1.0 + q ** (2 * j))
        geo.append((abs(raw0[2 * j] / pref - expect_p) / expect_p, {"l": 2 * j}))
        geo.append((abs(raw0[-2 * j] / pref - expect_m) / expect_m, {"l": -2 * j}))
    for l in range(-lmax, lmax + 1, 2):
        if l % 2:
            geo.append((abs(raw0[l]), {"l": l}))

    anti: list[tuple[float, dict]] = []
    for n, tab in tables.items():
        anti.append((tab.antisymmetry_violation(), {"annulus": n}))
    # functional antisymmetry g(1/x) = -g(x) ties annulus n to its mirror 1-n:
    # raw_n[l] = -raw_{1-n}[-l]; nontrivial check across the (0, 1) pair
    mirror = max(
        abs(tables[0].raw_coefficients[l] + tables[1].raw_coefficients[-l])
        / max(1.0, abs(tables[0].raw_coefficients[l]))
        for l in tables[0].raw_coefficients
    )
    anti.append((mirror, {"annuli": "(0,1) mirror pair"}))

    # crossing the pole circle |x| = |q|^n changes raw coefficients by the
    # analytic residue sum: pref * (-1)^n q^(-n l) (1 + (-1)^l)
    res_pairs: list[tuple[float, dict]] = []
    for n in (0, 1):
        for l in range(-lmax, lmax + 1):
            expected = pref * (-1.0) ** n * q ** (-n * l) * (1.0 + (-1.0) ** l)
            got = tables[n].raw_coefficients[l] - tables[n + 1].raw_coefficients[l]
            res_pairs.append(
                (abs(got - expected) / max(1.0, abs(expected)), {"n": n, "l": l})
            )

    # the central bracket carries the same coefficients scaled by its own
    # normalization 2 ln q, so the annulus-0 expansion check applies verbatim
    center0 = laurent_modes(
        "center",
        q=q,
        annulus=AnnulusLabel(0),
        l_range=(-lmax, lmax),
        quadrature_points=128,
        policy=pol,
    ).raw_coefficients
    cpref = 2.0 * math.log(q)
    geo_center = [(abs(center0[0] / cpref - 1.0), {"l": 0})]
    for j in range(1, lmax // 2 + 1):
        expect_p = 2.0 * q ** (2 * j) / (1.0 + q ** (2 * j))
        geo_center.append((abs(center0[2 * j] / cpref - expect_p) / expect_p, {"l": 2 * j}))

    meta = {"q": q, "m": m, "k": k, "lmax": lmax}
    return VerificationReport(
        "mode-brackets",
        [
            _aggregate("laurent-geometric-expansion", geo, 1e-8, t0, meta),
            _aggregate("laurent-antisymmetry", anti, 1e-10, t0, meta),
            _aggregate("laurent-residue-step", res_pairs, 1e-8, t0, meta),
            _aggregate("laurent-center-expansion", geo_center, 1e-8, t0, meta),
        ],
        cfg.to_dict(),
        __version__,
    )


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SuiteSpec:
    runner: Callable[[VerifyConfig], VerificationReport]
    description: str
    aliases: tuple[str, ...] = ()


SUITES: dict[str, SuiteSpec] = {
    "theta": SuiteSpec(
        suite_theta,
        "quasi-periodicity, inversion and integer shift law of theta_a",
    ),
    "tau-dual": SuiteSpec(
        suite_tau_dual,
        "agreement of the theta-quotient and product forms of tau",
        ("tau",),
    ),
    "rmatrix": SuiteSpec(
        suite_rmatrix,
        "crossing symmetry, nome-shift covariance and Yang-Baxter for R+",
        ("crossing",),
    ),
    "f-two-path": SuiteSpec(
        suite_f_two_path,
        "closed form of F(m, x) vs the iterated shift-factor product",
        ("theorem4",),
    ),
    "y-two-path": SuiteSpec(
        suite_y_two_path,
        "closed form of Y vs the F-ratio construction",
        ("theorem5",),
    ),
    "feigin-frenkel": SuiteSpec(
        suite_feigin_frenkel,
        "Y(x q^2) = Y(x) and Y(x q) = Y(1/x)",
    ),
    "commuting-points": SuiteSpec(
        suite_commuting_points,
        "F = 1 at p = q^(2k) for odd k, even-k closed form, and Y = 1",
        ("theorem6",),
    ),
    "p-periodicity": SuiteSpec(
        suite_p_periodicity,
        "invariance of F and Y under the nome shift p -> p q^4",
        ("remark3",),
    ),
    "beta-limit": SuiteSpec(
        suite_beta_limit,
        "first-order approach of ln(Y)/beta to the k-labeled structure function",
        ("theorem7", "limit"),
    ),
    "coincidence": SuiteSpec(
        suite_coincidence,
        "central bracket matches the k-labeled series after one-point normalization",
    ),
    "mode-brackets": SuiteSpec(
        suite_mode_brackets,
        "contour structure constants: expansions, antisymmetry, residue steps",
        ("modes",),
    ),
}

_ALIAS_INDEX = {alias: name for name, spec in SUITES.items() for alias in spec.aliases}


def resolve_suites(names: Iterable[str]) -> list[str]:
    out: list[str] = []
    for raw in names:
        name = raw.strip().lower()
        if name == "all":
            for n in SUITES:
                if n not in out:
                    out.append(n)
            continue
        canonical = name if name in SUITES else _ALIAS_INDEX.get(name)
        if canonical is None:
            raise DomainError(f"unknown suite {raw!r}; see 'verify --list'")
        if canonical not in out:
            out.append(canonical)
    return out


def run_suite(name: str, cfg: VerifyConfig) -> VerificationReport:
    return SUITES[name].runner(cfg)


def run_suites(names: Iterable[str], cfg: VerifyConfig) -> VerificationReport:
    resolved = resolve_suites(names)
    reports = [run_suite(n, cfg) for n in resolved]
    if len(reports) == 1:
        return reports[0]
    merged = merge_reports(reports, suite="+".join(resolved))
    merged.config = {"suites": resolved, **cfg.to_dict()}
    merged.tool_version = __version__
    return merged


def list_suites() -> str:
    lines = []
    for name, spec in SUITES.items():
        alias = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        lines.append(f"{name:<18} {spec.description}{alias}")
    return "\n".join(lines) + "\n"
