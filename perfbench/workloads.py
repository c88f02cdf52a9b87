"""The benchmark's workloads: seeded inputs, one pass of CLI invocations,
and the correctness gate each invocation's output must pass.

Every workload drives ``ellex.cli.main`` with the argument vector a user
would type.  A pass is a fixed list of operations (one ``Op`` each); the
same seed always gives the same list.  Nothing in this module imports
mpmath: the eval-grid oracle is computed by ``oracle.py`` in a separate
process, so the measured process holds only the program and its inputs.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference

# a check whose residual is exactly 0 counts as this, so one exact check
# cannot drag the mean log-residual to -inf
RESID_FLOOR = 1e-17

# eval-grid gate: relative error against the 50-digit oracle, scaled by the
# point's condition (1 / relative distance to the nearest theta zero)
EVAL_REL_TOL = 1e-12
# roundoff allowed on top of the reported trunc_err before a point counts
# as a trunc_err miss: 16 double roundings of the value
ROUNDOFF_REL = 16 * 2.0**-52

# modes gate, as in the mode-bracket suite: relative error of every even
# coefficient against its closed form, odd coefficients relative to |pref|
MODES_REL_TOL = 1e-8


def fmt_complex(z: complex) -> str:
    """Exact text for a complex flag value; ``complex()`` reads it back."""
    return repr(complex(z))


def log_residual(err: float, tol: float) -> float:
    return math.log10(max(err, RESID_FLOOR) / tol)


def rel_distance_to_power(base: complex, y: complex) -> float:
    """min over integers n of |y base^-n - 1|: how close y is to a zero base^n."""
    lb = cmath.log(base)
    ly = cmath.log(y)
    center = round(math.log(abs(y)) / math.log(abs(base)))
    return min(
        abs(cmath.exp(ly - n * lb) - 1.0) for n in range(center - 2, center + 3)
    )


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _agm_K(k: float) -> float:
    """Complete elliptic integral K(k), kept apart from the program's own."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(40):  # quadratic convergence: a handful of steps suffice
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the argument vector and what it evaluates."""

    argv: tuple[str, ...]
    label: str
    points: int = 1
    spec: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    op: Op
    rc: int | None
    seconds: float
    stdout: str
    output: bytes | None = None
    error: str | None = None


class Workload:
    """Base: a named, seeded list of operations plus their gate."""

    name = ""
    cap_s = 60.0  # wall-clock cap on one operation
    setups = 7  # fresh interpreters timed for setup_s
    # the operation a set-up finishes; the same for every seed, so setup_s
    # does not depend on which operation the seeded shuffle puts first
    warmup_op: Op

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def needs_oracle(self) -> bool:
        return False

    def take_output(self) -> bytes | None:
        """The file an operation wrote, if the workload's commands write one."""
        return None

    def check(self, outcome: Outcome) -> list[str]:
        """Gate one outcome; returns the reasons it failed (empty: passed)."""
        if outcome.error:
            return [outcome.error]
        if outcome.rc != 0:
            return [f"exit code {outcome.rc}"]
        try:
            return self._check_output(outcome)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{outcome.op.label}: unreadable output: {type(exc).__name__}: {exc}"]

    def _check_output(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def summary(self) -> dict:
        """Workload-specific end-to-end figures gathered by the gates."""
        return {}


# ---------------------------------------------------------------------------
# verify


class VerifyWorkload(Workload):
    """The headline command, ``verify --suite all``; one operation is one report.

    The report keeps the CLI's default seed, 7, whatever the benchmark seed:
    a report's cost depends on its seed (the points each suite samples), by
    8700 to 11300 yardsticks over report seeds 1 to 10, against 3% between
    passes of one run.  Seed 7 is also the report the reference records."""

    cap_s = 60.0
    setups = 3  # each one runs a whole report

    def __init__(
        self,
        name: str,
        seed: int,
        scratch: Path,
        parallel: int,
        suite_args: tuple[str, ...] = ("--suite", "all"),
    ):
        super().__init__(seed, scratch)
        self.name = name
        self.out_path = scratch / f"{name}.json"
        self._ops = [
            Op(
                ("verify", *suite_args, "--format", "json", "--output", str(self.out_path),
                 "--parallel", str(parallel)),
                "verify",
            )
        ]
        self.warmup_op = self._ops[0]
        self.first_bytes: bytes | None = None
        self.report: dict | None = None

    def ops(self) -> list[Op]:
        return self._ops

    def take_output(self) -> bytes | None:
        try:
            data = self.out_path.read_bytes()
        except FileNotFoundError:
            return None
        self.out_path.unlink()
        return data

    def _check_output(self, outcome: Outcome) -> list[str]:
        data = outcome.output
        if data is None:
            return ["no report written"]
        if self.first_bytes is None:
            self.first_bytes = data
            self.report = json.loads(data)
        elif data != self.first_bytes:
            return ["report differs from the first pass of this run"]
        if not self.report.get("aggregate_pass"):
            failed = [c["check_id"] for c in self.report["checks"] if not c["pass"]]
            return [f"aggregate_pass false: {failed}"]
        return []

    def summary(self) -> dict:
        if self.report is None:
            return {}
        checks = self.report["checks"]
        logs = [log_residual(c["max_abs_error"], c["tolerance"]) for c in checks]
        now = reference.summarize(self.first_bytes)
        out = {
            "resid_log10_mean": sum(logs) / len(logs),
            "checks": len(checks),
            "report_sha256": now["report_sha256"],
            "max_abs_error": now["max_abs_error"],
        }
        if reference.REFERENCE.exists():
            out["seed7_reference"] = reference.compare(
                self.first_bytes, json.loads(reference.REFERENCE.read_text()))
        return out


# ---------------------------------------------------------------------------
# eval-grid

# the exchange suites' nome
EXCHANGE_P = 0.18
EXCHANGE_Q = -0.45
LEVELS = (-2, -1, 1, 2, 3)
POINTS_PER_OP = 20
# one theta invocation per base modulus; the cost of a theta product grows
# with |a|, so fixed moduli (random phases) keep a pass's cost seed-independent
THETA_MODULI = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9)
NEAR_ZERO_PER_OP = 2  # a tenth of the theta points sit near a zero a^n
SNH_OPS = 7  # `eval --fn snh` takes one point per invocation
# 31 invocations a pass: an odd count puts the median latency on one
# invocation rather than between two of different cost


def _stratified_moduli(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """count log-uniform moduli in [lo, hi], one per equal stratum of log r."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / count
    return [math.exp(a + (i + rng.random()) * w) for i in range(count)]


def _clear_of_spirals(x: complex, p: complex, q: complex, tol: float = 1e-3) -> bool:
    """x^2 away from every p^s q^j (|s| <= 7): the zeros and poles of every
    theta factor of tau, F, Y, g and the central bracket at levels |m| <= 3."""
    x2 = x * x
    return all(rel_distance_to_power(q, x2 * p ** (-s)) >= tol for s in range(-7, 8))


class EvalGridWorkload(Workload):
    """Batched ``eval --format json`` invocations, K points of one function each."""

    name = "eval-grid"
    cap_s = 20.0

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self._ops = self._build(random.Random(f"eval-grid/{seed}"))
        self.expected: dict[tuple, list[str]] = {}  # op argv -> oracle values
        self.max_rel_err = 0.0
        self.max_rel_err_scaled = 0.0
        self.trunc_err_misses: set[tuple] = set()  # (op argv, point index)

    def needs_oracle(self) -> bool:
        return True

    def oracle_spec(self) -> list[dict]:
        return [op.spec for op in self._ops]

    def set_oracle(self, values: list[list[str]]) -> None:
        self.expected = {op.argv: v for op, v in zip(self._ops, values)}

    def ops(self) -> list[Op]:
        return self._ops

    @staticmethod
    def _exchange_xs(rng: random.Random) -> list[complex]:
        xs: list[complex] = []
        for r in _stratified_moduli(rng, POINTS_PER_OP, 0.6, 1.6):
            while True:
                x = cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))
                if _clear_of_spirals(x, EXCHANGE_P, EXCHANGE_Q):
                    break
            xs.append(x)
        return xs

    @staticmethod
    def _op(fn: str, params: dict, xs: list[complex], cond: list[float]) -> Op:
        argv = ["eval", "--fn", fn, "--format", "json"]
        # flag=value: a value may start with '-' and must not read as a flag
        argv += [f"--{key}={val}" for key, val in params.items()]
        argv += [f"--x={fmt_complex(x)}" for x in xs]
        spec = {"fn": fn, "params": params, "x": [fmt_complex(x) for x in xs], "cond": cond}
        return Op(tuple(argv), f"eval:{fn}", max(len(xs), 1), spec)

    @staticmethod
    def _theta_xs(rng: random.Random, a: complex) -> tuple[list[complex], list[float]]:
        """Points with |x| in [0.1, 10] clear of the zeros a^n, the first
        NEAR_ZERO_PER_OP at relative distance 1e-7 .. 1e-4 from one."""
        powers = [n for n in range(-3, 4) if 0.1 <= abs(a) ** n <= 10.0]
        xs: list[complex] = []
        for i, r in enumerate(_stratified_moduli(rng, POINTS_PER_OP, 0.1, 10.0)):
            if i < NEAR_ZERO_PER_OP:
                delta = _log_uniform(rng, 1e-7, 1e-4)
                xs.append(a ** rng.choice(powers) * (1.0 + cmath.rect(delta, rng.uniform(0, 2 * math.pi))))
                continue
            while True:
                x = cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))
                if rel_distance_to_power(a, x) >= 1e-4:
                    break
            xs.append(x)
        return xs, [max(1.0, 1.0 / rel_distance_to_power(a, x)) for x in xs]

    def _build(self, rng: random.Random) -> list[Op]:
        ops: list[Op] = []
        for modulus in THETA_MODULI:
            a = cmath.rect(modulus, rng.uniform(0.0, 2.0 * math.pi))
            xs, cond = self._theta_xs(rng, a)
            ops.append(self._op("theta", {"a": fmt_complex(a)}, xs, cond))
        q = fmt_complex(EXCHANGE_Q)
        p = fmt_complex(EXCHANGE_P)
        for _ in range(2):
            xs = self._exchange_xs(rng)
            ops.append(self._op("tau", {"q": q}, xs, [1.0] * len(xs)))
        for fn in ("F", "Y"):
            for m in LEVELS:
                xs = self._exchange_xs(rng)
                ops.append(self._op(fn, {"m": str(m), "p": p, "q": q}, xs, [1.0] * len(xs)))
        for fn in ("g", "center"):
            for qv in (EXCHANGE_Q, 0.45):
                xs = self._exchange_xs(rng)
                ops.append(self._op(fn, {"q": fmt_complex(qv)}, xs, [1.0] * len(xs)))
        for i in range(SNH_OPS):
            k = 0.1 + 0.8 * (i + rng.random()) / SNH_OPS
            u = rng.uniform(0.05, 0.8) * _agm_K(math.sqrt(1.0 - k * k))
            u = u if i % 2 else -u
            ops.append(self._op("snh", {"u": repr(u), "modulus": repr(k)}, [], [1.0]))
        self.warmup_op = ops[0]  # theta at the smallest base modulus
        rng.shuffle(ops)
        return ops

    def _check_output(self, outcome: Outcome) -> list[str]:
        spec = outcome.op.spec
        expected = self.expected[outcome.op.argv]
        rows = json.loads(outcome.stdout)["results"]
        if len(rows) != len(expected):
            return [f"{len(rows)} results for {len(expected)} points"]
        problems = []
        for i, (row, ref_text) in enumerate(zip(rows, expected)):
            if spec["x"] and complex(row["x"]) != complex(spec["x"][i]):
                problems.append(f"point {i}: x echoed as {row['x']}")
                continue
            value = complex(row["value"])
            ref = complex(ref_text)
            rel = abs(value - ref) / abs(ref)
            cond = spec["cond"][i]
            self.max_rel_err = max(self.max_rel_err, rel)
            self.max_rel_err_scaled = max(self.max_rel_err_scaled, rel / cond)
            if abs(value - ref) > row["trunc_err"] + ROUNDOFF_REL * cond * abs(ref):
                self.trunc_err_misses.add((outcome.op.argv, i))
            if rel > EVAL_REL_TOL * cond:
                problems.append(
                    f"{spec['fn']} point {i}: relative error {rel:.3e} > {EVAL_REL_TOL * cond:.3e}"
                )
        return problems

    def summary(self) -> dict:
        return {
            "max_rel_err": self.max_rel_err,
            "max_rel_err_over_cond": self.max_rel_err_scaled,
            "points": sum(op.points for op in self._ops),
            "trunc_err_misses": len(self.trunc_err_misses),
        }


# ---------------------------------------------------------------------------
# modes

MODES_QS = (0.5, 0.7)
MODES_ANNULI = (0, 1)
MODES_NODES = 512
MODES_LMAX = 32


class ModesWorkload(Workload):
    """``modes`` tables for klimit and center on annuli 0 and 1 at q in {0.5, 0.7}."""

    name = "modes"
    cap_s = 20.0

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = random.Random(f"modes/{seed}")
        self.m = rng.choice((-2, -1, 1, 2, 3))
        self.k = rng.choice((1, 2, 3))
        pairs = ",".join(f"{rng.randint(-4, 4)}:{rng.randint(-4, 4)}" for _ in range(3))
        ops = []
        for which in ("center", "klimit"):
            for q in MODES_QS:
                for n in MODES_ANNULI:
                    argv = ["modes", "--which", which, "--q", repr(q), "--annulus", str(n),
                            "--nodes", str(MODES_NODES), "--lmax", str(MODES_LMAX),
                            f"--pairs={pairs}", "--format", "json"]
                    if which == "klimit":
                        argv += [f"--m={self.m}", f"--k={self.k}"]
                    ops.append(Op(tuple(argv), f"modes:{which}",
                                  spec={"which": which, "q": q, "annulus": n}))
        # center at q = 0.5 on annulus 0: unlike klimit, it takes no seeded level
        self.warmup_op = ops[0]
        rng.shuffle(ops)
        self._ops = ops
        self.max_rel_err = 0.0

    def ops(self) -> list[Op]:
        return self._ops

    def _prefactor(self, which: str, q: float) -> float:
        lnq = math.log(q)
        if which == "center":
            return 2.0 * lnq
        if self.k % 2:
            return 2.0 * self.k * self.m * lnq
        return -2.0 * self.k * self.m * (2 * self.m - 1) * lnq

    def _check_output(self, outcome: Outcome) -> list[str]:
        spec = outcome.op.spec
        data = json.loads(outcome.stdout)
        q = spec["q"]
        pref = self._prefactor(spec["which"], q)
        # annulus 0 closed form; annulus 1 is its mirror, raw_1[l] = -raw_0[-l]
        sign, flip = (1.0, 1) if spec["annulus"] == 0 else (-1.0, -1)
        raw = {int(l): complex(v) for l, v in data["raw_coefficients"].items()}
        if sorted(raw) != list(range(-MODES_LMAX, MODES_LMAX + 1)):
            return ["raw coefficient indices wrong"]
        problems = []
        for l, got in raw.items():
            j = flip * l
            if j == 0:
                expect = 1.0
            elif j % 2:
                expect = 0.0
            elif j > 0:
                expect = 2.0 * q**j / (1.0 + q**j)
            else:
                expect = 2.0 / (1.0 + q ** (-j))
            expect *= sign * pref
            err = abs(got - expect) / (abs(expect) if expect else abs(pref))
            self.max_rel_err = max(self.max_rel_err, err)
            if err > MODES_REL_TOL:
                problems.append(f"l={l}: relative error {err:.3e}")
        for l_text, g in data["structure_constants"].items():
            l = int(l_text)
            odd = 0.5 * (raw[l] - raw[-l])
            if abs(complex(g) - odd) > 1e-15 * max(1.0, abs(odd)):
                problems.append(f"structure constant {l} is not (g_l - g_-l)/2")
        return problems

    def summary(self) -> dict:
        return {"max_rel_err": self.max_rel_err, "m": self.m, "k": self.k}


# ---------------------------------------------------------------------------
# registry


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "verify-serial":
        return VerifyWorkload(name, seed, scratch, 1)
    if name == "eval-grid":
        return EvalGridWorkload(seed, scratch)
    if name == "modes":
        return ModesWorkload(seed, scratch)
    if name == "hang-guard":
        # a known input on which verify retries forever; the smoke test uses
        # it to show that the operation cap ends the run
        suite_args = ("--suite", "theorem6", "--q", "0.999", "--max-terms", "8")
        wl = VerifyWorkload(name, seed, scratch, 1, suite_args)
        wl.cap_s = 3.0
        return wl
    raise ValueError(f"unknown workload {name!r}")
