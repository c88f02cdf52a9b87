"""The ellex benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports the package from
``src/`` and drives ``ellex.cli.main`` in-process with the argument vectors a
user would type, one operation after another (one caller, closed loop).
Every output is checked; the run exits 1 when any operation fails, times out
or fails its gate, and 2 when the checkout holds no ``src/ellex``.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics from spans recorded around the calls into each module.  The last
line of standard output is always one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else (run context, per-check residuals, the full layer table) is
written to ``.bench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

YARDSTICK_LOOPS = 600  # 0.4 to 0.55 ms of pure Python on a 2-core Xeon VM
SAMPLE_CPU_S = 0.02  # one yardstick sample per 20 ms of CPU time: about 1% added
# seconds per yardstick at which setup_s counts its warm-up operation: about
# the yardstick's median during passes on the 2-core Xeon VM this was tuned on
YARDSTICK_REF_S = 0.5e-3
E2E_UNITS = {
    "wall_norm": "yardstick", "op_norm_p50": "yardstick", "setup_s": "s", "peak_rss_mb": "MB",
    # printed and recorded, not bounded (see README.md)
    "wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "yardstick_ms": "ms",
    "evals_per_s": "1/s", "fail_frac": "ratio", "resid_log10_mean": "log10",
    "max_rel_err": "ratio",
}

# per-layer functions: span name, unit of its per-call time, and the workload
# that owns it (its time per call comes from that workload's traced pass
# whenever the measured workload itself makes no such call)
LAYERS = (
    ("qseries.qpochhammer1", "us", "eval-grid"),
    ("qseries.qpochhammer2", "us", "verify-serial"),
    ("qseries.theta", "us", "eval-grid"),
    ("qseries.log_deriv_theta", "us", "modes"),
    ("elliptic.snh_core", "us", "verify-serial"),
    ("elliptic.jacobi_snh", "us", "eval-grid"),
    ("rmatrix.tau_fn", "us", "eval-grid"),
    ("rmatrix.kappa_inv", "us", "verify-serial"),
    ("rmatrix.mu_inv", "us", "verify-serial"),
    ("rmatrix.r_plus", "us", "verify-serial"),
    ("rmatrix.check_crossing", "us", "verify-serial"),
    ("rmatrix.check_pshift", "us", "verify-serial"),
    ("rmatrix.check_ybe", "us", "verify-serial"),
    ("exchange.exchange_F", "us", "eval-grid"),
    ("exchange.exchange_Y", "us", "eval-grid"),
    ("exchange.exchange_F_iterated", "us", "verify-serial"),
    ("exchange.exchange_Y_ratio", "us", "verify-serial"),
    ("exchange.commuting_F", "us", "verify-serial"),
    ("poisson.poisson_series_g", "us", "modes"),
    ("poisson.poisson_structure_center", "us", "modes"),
    ("poisson.laurent_modes", "ms", "modes"),
    ("poisson.beta_limit_check", "ms", "verify-serial"),
    ("report.to_json_bytes", "ms", "verify-serial"),
)
MODULES = ("qseries", "elliptic", "rmatrix", "exchange", "poisson", "suites", "report", "cli")
SCALE_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-serial", "eval-grid", "modes", "hang-guard"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run context


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None  # the checkout is not a git repository; see source_sha256
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(str(ROOT / ".git" / ref))
    if loose:
        return loose.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ellex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _loadavg() -> list[float] | None:
    text = _read("/proc/loadavg")
    return [float(v) for v in text.split()[:3]] if text else None


def run_context(seed: int) -> dict:
    import numpy

    import ellex

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ellex": ellex.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# operations


class OpTimeout(BaseException):
    """Raised in the main thread when an operation passes its wall-clock cap.

    A BaseException, so that no ``except Exception`` inside the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(wl, op):
    """Run one CLI invocation in-process under the workload's wall-clock cap."""
    import ellex.cli

    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, wl.cap_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = ellex.cli.main(list(op.argv))
    except OpTimeout:
        error = f"{op.label}: no result within the {wl.cap_s:g} s cap"
    except Exception as exc:  # a crash fails this operation, not the benchmark
        error = f"{op.label}: {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if error is None and rc != 0:
        error = f"{op.label}: exit code {rc}: {err.getvalue().strip()[:300]}"
    return Outcome(op, rc, seconds, out.getvalue(), wl.take_output(), error)


class Yardstick:
    """Samples the machine's speed while the program runs.

    Neighbours on a shared machine slow every instruction by up to 2x, in
    phases from half a second to tens of seconds (see README.md).  While
    active, a SIGPROF handler times a fixed pure-Python loop every
    SAMPLE_CPU_S of CPU time, in the middle of whatever the program is
    doing.  The mean of the samples taken during a pass tracks the slowdown
    that pass met, so a pass time divided by it measures the program rather
    than the neighbours.  The handler's own time is kept in ``spent`` and
    taken off the operation it interrupted."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None) -> None:
        # hashing, allocation and complex arithmetic, like the program: over
        # nine identical reports this loop tracked the slowdown more closely
        # (IQR/median 0.05) than integer arithmetic (0.07); raw seconds, 0.12
        t0 = time.perf_counter()
        table: dict[int, complex] = {}
        for i in range(YARDSTICK_LOOPS):
            table[i % 97] = complex(i, 1) * complex(1, i)
            table.get(i % 13)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Yardstick":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)


@dataclasses.dataclass
class Pass:
    wall: float | None  # summed operation seconds; None when a failure cut the pass short
    outcomes: list
    yard: float  # mean yardstick seconds sampled during the pass


def run_passes(wl, seconds: float) -> tuple[list[Pass], bool]:
    """Closed loop: whole passes until ``seconds`` have elapsed (at least one).

    Stops at the first operation that raises, exits non-zero or times out;
    the second value then is True."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    with Yardstick() as ys:
        while not passes or time.perf_counter() < deadline:
            outcomes = []
            first = len(ys.samples)
            for op in wl.ops():
                spent = ys.spent
                outcome = run_op(wl, op)
                outcome.seconds -= ys.spent - spent
                outcomes.append(outcome)
                if outcome.error:
                    break
            if len(ys.samples) == first:  # a pass shorter than one sampling interval
                ys.sample()
            yard = statistics.fmean(ys.samples[first:])
            if outcomes[-1].error:
                passes.append(Pass(None, outcomes, yard))
                return passes, True
            passes.append(Pass(sum(o.seconds for o in outcomes), outcomes, yard))
    return passes, False


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def gate(self, wl, passes: list[Pass]) -> None:
        for p in passes:
            for outcome in p.outcomes:
                self.record(wl.check(outcome))

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append("; ".join(problems)[:500])


def prepare_oracle(wl) -> None:
    """Load the eval-grid oracle, computing it in a child process on a miss.

    Cached in .bench_out/oracle/ under a hash of the inputs and oracle.py."""
    if not wl.needs_oracle():
        return
    blob = json.dumps(wl.oracle_spec(), sort_keys=True).encode()
    key = hashlib.sha256(blob + (HERE / "oracle.py").read_bytes()).hexdigest()[:32]
    cache_dir = OUT_DIR / "oracle"
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache = cache_dir / f"{key}.json"
    if not cache.exists():
        spec = cache_dir / f"{key}.{os.getpid()}.spec.json"
        tmp = cache_dir / f"{key}.{os.getpid()}.tmp"
        spec.write_bytes(blob)
        try:
            subprocess.run([sys.executable, str(HERE / "oracle.py"), str(spec), str(tmp)],
                           check=True, timeout=170)
            os.replace(tmp, cache)
        finally:
            spec.unlink(missing_ok=True)
            tmp.unlink(missing_ok=True)
    wl.set_oracle(json.loads(cache.read_text()))


# ---------------------------------------------------------------------------
# set-up time


def setup_child(args, scratch: Path) -> int:
    """Body of one fresh interpreter timed for setup_s: import the program,
    build the seeded inputs, finish one warm-up operation.

    Prints the warm-up's seconds (sampler included) and its time in
    yardsticks, as JSON."""
    import ellex.cli  # noqa: F401

    import workloads

    wl = workloads.build(args.workload, args.seed, scratch)
    t0 = time.perf_counter()
    with Yardstick() as ys:
        outcome = run_op(wl, wl.warmup_op)
    if not ys.samples:
        ys.sample()
    warmup_s = time.perf_counter() - t0
    if outcome.error:
        sys.stderr.write(outcome.error + "\n")
        return 1
    print(json.dumps({"warmup_s": warmup_s,
                      "warmup_norm": (warmup_s - ys.spent) / statistics.fmean(ys.samples)}))
    return 0


def time_setups(args, wl, ledger: Ledger) -> list[dict]:
    """Each fresh interpreter: seconds from start to exit, and its warm-up."""
    runs = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(wl.setups):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
        total = time.perf_counter() - t0
        ledger.record([] if proc.returncode == 0 else
                      [f"set-up: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        if proc.returncode != 0:
            break
        runs.append({"total_s": total, **json.loads(proc.stdout.strip().splitlines()[-1])})
    return runs


def setup_seconds(run: dict) -> float:
    """One set-up: interpreter start, imports and inputs in seconds as
    measured, plus the warm-up operation in yardsticks at YARDSTICK_REF_S.

    Imports and file reads do not slow down with a yardstick sampled beside
    them, so they stay raw; the warm-up is the program's own work, and for
    verify (a whole report) most of a set-up, so it is scaled like wall_norm."""
    return run["total_s"] - run["warmup_s"] + run["warmup_norm"] * YARDSTICK_REF_S


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)


def _tail(latencies: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    i = n - 11
    return {"value": ordered[i], "percentile": 100.0 * (i + 1) / n, "samples": n}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, wl, scratch: Path, ledger: Ledger) -> tuple[dict, dict]:
    setups = time_setups(args, wl, ledger)
    if ledger.failed:
        return {}, {"setup_runs": setups}
    prepare_oracle(wl)
    warm, aborted = run_passes(wl, 0.0)
    passes: list[Pass] = []
    if not aborted:
        passes, aborted = run_passes(wl, args.seconds)
    ledger.gate(wl, warm + passes)
    complete = [p for p in passes if p.wall is not None]
    latencies = [o.seconds for p in passes for o in p.outcomes]
    detail = {
        "setup_runs": setups,
        "setup_s_samples": [setup_seconds(run) for run in setups],
        "wall_s_samples": [p.wall for p in complete],
        "yardstick_ms_samples": [1e3 * p.yard for p in complete],
        "ops_measured": len(latencies),
        "fail_frac": ledger.failed / max(ledger.attempted, 1),
        **wl.summary(),
    }
    if not complete:
        return {}, detail
    metrics = {
        "wall_norm": statistics.median(p.wall / p.yard for p in complete),
        # each operation of the pass: its median over the passes
        "op_norm_p50": statistics.median(
            statistics.median(p.outcomes[i].seconds / p.yard for p in complete)
            for i in range(len(complete[0].outcomes))),
        "setup_s": statistics.median(setup_seconds(run) for run in setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail["wall_s"] = statistics.median(p.wall for p in complete)
    detail["op_ms_p50"] = 1e3 * statistics.median(latencies)
    detail["yardstick_ms"] = 1e3 * statistics.median(p.yard for p in complete)
    tail = _tail(latencies)
    if tail:
        detail["op_ms_tail"] = 1e3 * tail["value"]
        detail["op_ms_tail_percentile"] = tail["percentile"]
        detail["op_ms_tail_samples"] = tail["samples"]
    if wl.name == "eval-grid":
        points = sum(o.op.points for p in complete for o in p.outcomes)
        detail["evals_per_s"] = points / sum(p.wall for p in complete)
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run (--trace 1)


@dataclasses.dataclass
class Profile:
    """What one workload's traced passes recorded."""

    workload: object
    stats: dict
    passes: int
    walls: list
    norm_walls: list  # pass seconds over the pass's yardstick
    spans: list
    suite_reports: dict


def traced_profile(tracer, wl, seconds: float, ledger: Ledger) -> Profile:
    from spans import layer_stats

    start = tracer.mark()
    tracer.suite_reports.clear()
    passes, _aborted = run_passes(wl, seconds)
    ledger.gate(wl, passes)
    spans = tracer.spans[start:]
    complete = [p for p in passes if p.wall is not None]
    return Profile(wl, layer_stats(spans), max(len(complete), 1), [p.wall for p in complete],
                   [p.wall / p.yard for p in complete], spans, dict(tracer.suite_reports))


SPEEDUP_RUNS = 3  # alternated runs of each of --parallel 1 and --parallel 2


def rmatrix_speedup(args, tracer, scratch: Path, ledger: Ledger) -> tuple[float, dict]:
    """Untraced ``verify --suite rmatrix`` time with --parallel 1 over --parallel 2,
    as the ratio of the medians of alternated runs, and the samples.

    Timed with tracing off: the workers of --parallel 2 record no spans, so a
    traced serial run would overstate the speed-up."""
    import workloads

    wls = {parallel: workloads.VerifyWorkload(f"rmatrix-par{parallel}", args.seed, scratch,
                                              parallel, ("--suite", "rmatrix"))
           for parallel in (1, 2)}
    seconds: dict[int, list[float]] = {1: [], 2: []}
    tracer.enabled = False
    try:
        for _ in range(SPEEDUP_RUNS):
            for parallel, wl in wls.items():
                passes, _aborted = run_passes(wl, 0.0)
                ledger.gate(wl, passes)
                seconds[parallel].append(passes[0].outcomes[0].seconds)
    finally:
        tracer.enabled = True
    samples = {f"parallel{k}_s": v for k, v in seconds.items()}
    return statistics.median(seconds[1]) / statistics.median(seconds[2]), samples


def per_layer(args, wl, scratch: Path, ledger: Ledger) -> tuple[dict, dict]:
    import workloads
    from spans import Tracer, direct_child_ns

    prepare_oracle(wl)
    warm, aborted = run_passes(wl, 0.0)
    untraced: list[Pass] = []
    if not aborted:
        untraced, aborted = run_passes(wl, args.seconds / 2)
    ledger.gate(wl, warm + untraced)
    if aborted:
        return {}, {}

    tracer = Tracer()
    tracer.install()
    profiles: dict[str, Profile] = {}
    try:
        own = profiles[wl.name] = traced_profile(tracer, wl, args.seconds / 2, ledger)
        if not own.walls:
            return {}, {}

        def profile(name: str) -> Profile:
            """The measured workload's own profile, or one traced pass of another."""
            if name not in profiles:
                other = workloads.build(name, args.seed, scratch)
                prepare_oracle(other)
                profiles[name] = traced_profile(tracer, other, 0.0, ledger)
            return profiles[name]

        def source(span: str, owner: str) -> Profile:
            st = own.stats.get(span)
            return own if st and st.calls else profile(owner)

        metrics: dict[str, float] = {}
        for span, unit, owner in LAYERS:
            prof = source(span, owner)
            st = prof.stats.get(span)
            metrics[f"{span}.{unit}"] = st.incl_ns / st.calls / SCALE_NS[unit] if st else 0.0
            metrics[f"{span}.calls"] = own.stats[span].calls / own.passes if span in own.stats else 0
        total_ns = 1e9 * sum(own.walls)
        for module in MODULES:
            self_ns = sum(st.self_ns for name, st in own.stats.items() if name.startswith(module + "."))
            metrics[f"{module}.self_share"] = self_ns / total_ns
        lm = source("poisson.laurent_modes", "modes").stats["poisson.laurent_modes"]
        metrics["poisson.laurent_modes.dft_share"] = lm.self_ns / lm.incl_ns

        serial = own if wl.name == "verify-serial" else profile("verify-serial")
        suite_source = own if any(n.startswith("suites.") for n in own.stats) else serial
        for name, report in sorted(suite_source.suite_reports.items()):
            st = suite_source.stats[f"suites.{name}"]
            metrics[f"suites.{name}.s"] = st.incl_ns / st.calls / 1e9
            metrics[f"suites.{name}.resid_log10"] = max(
                workloads.log_residual(c.max_abs_error, c.tolerance) for c in report.checks)
        metrics["suites.rmatrix.par2_speedup"], speedup_samples = rmatrix_speedup(
            args, tracer, scratch, ledger)
        verify_stats = suite_source.stats
        metrics["suites.span_coverage"] = (
            sum(st.incl_ns for n, st in verify_stats.items() if n.startswith("suites.")
                and n != "suites.run_suites") / verify_stats["cli.main"].incl_ns)

        ev = own if wl.name == "eval-grid" else profile("eval-grid")
        main_ns, library_ns = direct_child_ns(ev.spans, "cli.main")
        metrics["cli.eval.overhead_share"] = 1.0 - library_ns / main_ns
        metrics["cli.eval.trunc_err_misses"] = len(ev.workload.trunc_err_misses)
        # traced over untraced pass time, each in yardsticks taken alongside
        share = (statistics.median(own.norm_walls)
                 / statistics.median(p.wall / p.yard for p in untraced)) - 1.0
        metrics["cli.trace_overhead_s"] = share * statistics.median(p.wall for p in untraced)
        metrics["cli.trace_overhead_share"] = share
    finally:
        tracer.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)
    table = {
        name: {
            "calls_per_pass": st.calls / own.passes,
            "incl_us_per_call": st.incl_ns / st.calls / 1e3,
            "self_us_per_call": st.self_ns / st.calls / 1e3,
            "self_s_per_pass": st.self_ns / own.passes / 1e9,
        }
        for name, st in sorted(own.stats.items())
    }
    detail = {
        "untraced_wall_s_samples": [p.wall for p in untraced],
        "traced_wall_s_samples": own.walls,
        "companion_passes": sorted(n for n in profiles if n != wl.name),
        "par2_speedup_samples": speedup_samples,
        "layers": table,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, detail


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ellex" / "__init__.py").is_file():
        sys.stderr.write(f"no src/ellex under {ROOT}: run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = OUT_DIR / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_child:
            return setup_child(args, scratch)
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch: Path) -> int:
    import workloads

    context = run_context(args.seed)
    wl = workloads.build(args.workload, args.seed, scratch)
    ledger = Ledger()
    if args.trace:
        metrics, detail = per_layer(args, wl, scratch, ledger)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics, detail = end_to_end(args, wl, scratch, ledger)
        units = E2E_UNITS
    context["loadavg_end"] = _loadavg()
    correct = ledger.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    detail_doc = {"workload": wl.name, "trace": args.trace, "context": context,
                  "failures": ledger.reasons, "detail": detail, "result": result}
    detail_path.write_text(json.dumps(detail_doc, indent=1, sort_keys=True, default=str))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"python={context['python']} numpy={context['numpy']} nproc={context['nproc']} "
          f"load={context['loadavg_start']}->{context['loadavg_end']} "
          f"commit={context['git_commit'] or context['source_sha256'][:12]}")
    for reason in ledger.reasons:
        print(f"# FAILED: {reason}")
    for key, value in sorted(detail.items()):
        if key in E2E_UNITS:
            print(f"# {key} = {value!r} {E2E_UNITS[key]}")
    if "op_ms_tail" in detail:
        print(f"#   (op_ms_tail is p{detail['op_ms_tail_percentile']:.1f} "
              f"of {detail['op_ms_tail_samples']} operations)")
    print(f"# detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in SCALE_NS:
        return suffix
    if suffix == "calls" or suffix == "trunc_err_misses":
        return "count"
    if suffix == "resid_log10":
        return "log10"
    if suffix == "trace_overhead_s":
        return "s"
    return "ratio"


if __name__ == "__main__":
    raise SystemExit(main())
