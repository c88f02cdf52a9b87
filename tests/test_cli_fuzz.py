"""Seeded CLI fuzz: argument vectors drawn from a grammar over every
command's flags and edge-value pools, each run in process under a 2 s alarm.

Every run must return exit code 0, 1 or 2, raise nothing and finish before
its alarm.  Exit 2 writes nothing to stdout and one ``error:`` line to
stderr (after argparse's usage line, for a usage error); exit 0 prints no
nan or inf.  Tier-1 runs 600 vectors at each of the seeds 1-5.  A longer run
at another seed, until a time limit, reporting every vector that fails:

    PYTHONPATH=src python tests/test_cli_fuzz.py SEED SECONDS
"""

import cmath
import contextlib
import io
import math
import random
import re
import signal
import sys
import time

import pytest

from ellex import qseries
from ellex.cli import main

ALARM_S = 2.0
VECTORS_PER_SEED = 600

# a non-finite value as Python, json and csv print it: inf, -inf, nan,
# (inf+nanj), infj, Infinity, NaN; "info" and "nanoseconds" do not match
_NON_FINITE = re.compile(r"\b(inf|infinity|nan)j?\b", re.IGNORECASE)

# edge values of every numeric flag: signed zeros, subnormals, the ends of
# the double range, nan and inf, |z| within an ulp of 1, and text that is
# no number at all
EDGE_NUMBERS = [
    "0", "-0", "0.0", "-0.0", "0j", "-0.0-0.0j", "5e-324", "-5e-324", "1e-310",
    "2.2250738585072014e-308", "1e-308", "1e-200", "1e-155", "1e-12", "1e154", "1e308",
    "-1e308", "1.7976931348623157e308", "1e309", "nan", "-nan", "nanj", "inf", "-inf",
    "infj", "1", "-1", "1j", "-1j", "0.9999999999999999", "1.0000000000000002", "abc", "",
]
# the inputs that hung, ended in a traceback or printed an underflowed 0
# before they were mended: kappa and mu at p = 0.995, and the p, q and x of F
# at m = -32 and of Y at m = 58
KNOWN = ["1+7.967831128488578e-09j", "0.9553364891256059+0.2955202066613395j",
         "-1.2438604811473973e-12", "0.999999", "0.9999", "0.995",
         "0.9183099367747641+0.022373689537674168j", "-0.03988826010863804+0.8757637783654194j",
         "-0.3104834713268973-0.17483602480197497j", "0.9672497223588254-0.025608725260075536j",
         "0.06706630858736884+0.7588416436919556j", "0.7680811674400397-0.9103962883210333j"]
INTS = ["1", "-1", "2", "-2", "3", "-3", "5"]
# |m| = 1000 is 2000 theta quotients, up to 2.6 s at |p| near 1: no hang,
# but past the alarm
INTS_WILD = ["0", "8", "40", "-40", "-32", "58", "100", "-100", "1.5", "x"]
MAX_TERMS = ["60", "512", "512", "4096"]
MAX_TERMS_WILD = ["1", "2", "3", "8", "0", "-1"]
TAIL_TOLS = ["1e-15", "1e-10", "1e-6", "0.5"]
TAIL_TOLS_REFUSED = ["0.999999999999999", "0", "1", "2", "-1e-15", "nan", "inf"]
# tails down to the least double; verify takes only the refused ones, since a
# suite at tail 1e-300 is seconds of work
TAIL_TOLS_WILD = ["1e-17", "1e-300", "5e-324", "0.99999999999999", *TAIL_TOLS_REFUSED]
EXPONENTS = ["-8", "-4", "-2", "-1", "1", "2", "3", "4", "8"]
EXPONENTS_WILD = ["-400", "-40", "0", "40", "400", "100000"]
EVAL_PARAMS = {
    "theta": ("a",), "tau": ("q",), "mu": ("p", "q"), "kappa": ("p", "q"),
    "F": ("m", "p", "q"), "Y": ("m", "p", "q"), "g": ("q",), "center": ("q",),
    "ps1": ("q",), "gk": ("m", "k", "q"), "snh": ("u", "modulus"), "K": ("modulus",),
}
# each suite by a name or an alias; the cheap ones (a few ms a run) twice as
# often as those that take 30-100 ms
SUITES = ["theta", "rmatrix", "crossing", "f-two-path", "y-two-path", "feigin-frenkel",
          "commuting-points", "mode-brackets", "modes",
          *["tau-dual", "tau", "p-periodicity", "beta-limit", "limit", "coincidence"] * 2]
BETAS = ["1e-1,1e-2,1e-3,1e-4", "1e-2,1e-3"]
BETAS_WILD = ["0.1", "1e-2,1e-2", "abc", "1e-300,1e-301", "2,3", "0,1e-3", "-1e-2,1e-3",
              "nan,1e-3", "1e-2,,1e-3"]


def near_unit(rng: random.Random) -> str:
    """A complex number within 1e-17..1e-1 of the unit circle, on either
    side, at a random phase or on an axis."""
    r = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(1.0, 17.0)
    phase = rng.choice((0.0, math.pi, math.pi / 2, rng.uniform(-math.pi, math.pi)))
    return repr(cmath.rect(r, phase))


class Draw:
    """One vector's draws: each value is an edge value with probability
    ``wild``, else an ordinary one (a nome inside the unit disk, an argument
    of moderate modulus), so that most vectors reach the math."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.wild = rng.choice((0.03, 0.1, 0.3, 0.6))

    def pick(self, plain: list, edges: list):
        return self.rng.choice(edges if self.rng.random() < self.wild else plain)

    def number(self, lo: float, hi: float) -> str:
        rng = self.rng
        if rng.random() < self.wild:
            pick = rng.random()
            if pick < 0.5:
                return rng.choice(EDGE_NUMBERS)
            return near_unit(rng) if pick < 0.85 else rng.choice(KNOWN)
        mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        return repr(rng.choice((mag, -mag, cmath.rect(mag, rng.uniform(-math.pi, math.pi)))))

    def nome(self) -> str:
        return self.number(0.05, 0.95)

    def power(self) -> str:
        """A value of --p or --a: a nome, or q^k, which the CLI forms from --q."""
        if self.rng.random() < 0.3:
            suffix = self.rng.choice(("", "-exact"))
            return f"q^{self.pick(EXPONENTS, EXPONENTS_WILD)}{suffix}"
        return self.nome()

    def argument(self) -> str:
        return self.number(0.1, 10.0)

    def integer(self) -> str:
        return self.pick(INTS, INTS_WILD)


def _flag(name: str, value: str) -> str:
    # the --flag=value form reads a value that starts with "-" as a value
    return f"--{name}={value}"


def _common(d: Draw, argv: list[str], tails: list[str] = TAIL_TOLS_WILD) -> list[str]:
    if d.rng.random() < 0.3:
        argv.append(_flag("max-terms", d.pick(MAX_TERMS, MAX_TERMS_WILD)))
    if d.rng.random() < 0.2:
        argv.append(_flag("tail-tol", d.pick(TAIL_TOLS, tails)))
    if d.rng.random() < 0.5:
        argv.append(_flag("format", d.rng.choice(("json", "csv", "text"))))
    return argv


def _eval(d: Draw) -> list[str]:
    fn = d.rng.choice(list(EVAL_PARAMS)) if d.rng.random() < 0.98 else "nope"
    argv = ["eval", _flag("fn", fn)]
    values = {
        "a": d.power, "p": d.power, "q": d.nome, "m": d.integer, "k": d.integer,
        "u": lambda: d.pick(["0.3", "-0.7", "1.2", "2.5"], [*EDGE_NUMBERS, "-390", "400"]),
        "modulus": lambda: d.pick(["0.3", "0.5", "0.8", "0.99"],
                                  [*EDGE_NUMBERS, "0.99999999", "1e-300"]),
    }
    for name, value in values.items():
        if d.rng.random() < (0.97 if name in EVAL_PARAMS.get(fn, ()) else 0.03):
            argv.append(_flag(name, value()))
    for _ in range(d.pick([1, 1, 2, 3], [0, 1])):
        argv.append(_flag("x", d.argument()))
    return _common(d, argv)


def _verify(d: Draw) -> list[str]:
    argv = ["verify"]
    if d.rng.random() < 0.03:
        return [*argv, "--list"]
    for _ in range(d.rng.choice((1, 1, 1, 2))):
        argv.append(_flag("suite", d.pick(SUITES, ["all", "nope"])))
    if d.rng.random() < 0.8:
        argv.append(_flag("q", d.nome()))
    if d.rng.random() < 0.5:
        # an R-matrix suite at |p| near 1 takes a second
        argv.append(_flag("p", d.power() if d.rng.random() < 0.3 else d.number(0.05, 0.6)))
    if d.rng.random() < 0.3:
        argv.append(_flag("k", d.integer()))
    if d.rng.random() < 0.2:
        argv.append(_flag("seed", d.pick(["0", "1", "7", "123"], ["-1", str(2**63), "x"])))
    if d.rng.random() < 0.1:
        # one worker, or a refused count: no process pool in a fuzz
        argv.append(_flag("parallel", d.rng.choice(("1", "0", "-1"))))
    return _common(d, argv, TAIL_TOLS_REFUSED)


def _limit(d: Draw) -> list[str]:
    argv = ["limit"]
    for name, value in (("m", d.integer), ("k", d.integer), ("q", d.nome), ("x", d.argument)):
        if d.rng.random() < 0.97:
            argv.append(_flag(name, value()))
    if d.rng.random() < 0.5:
        argv.append(_flag("betas", d.pick(BETAS, BETAS_WILD)))
    return _common(d, argv)


def _modes(d: Draw) -> list[str]:
    argv = ["modes", _flag("q", d.nome())]
    choices = {
        "which": (["klimit", "center", "theorem7", "ps1"], ["nope"]),
        "m": (INTS, INTS_WILD),
        "k": (INTS, INTS_WILD),
        "annulus": (["0", "1", "-1", "2"], ["5", "-5", "40", "2000"]),
        "lmax": (["0", "1", "4", "8"], ["-1", "16"]),
        "pairs": (["1:-1", "1:-1,2:2", "0:0"], ["x", "1", "3:a"]),
        "cutoff": (["0", "8"], ["-1"]),
    }
    for name, (plain, edges) in choices.items():
        if d.rng.random() < (0.95 if name in ("m", "k") else 0.4):
            argv.append(_flag(name, d.pick(plain, edges)))
    # a small table: the default 256 nodes cost a few ms a run
    argv.append(_flag("nodes", d.pick(["36", "64", "64"], ["0", "3", "-4", "16"])))
    return _common(d, argv)


def draw_argv(rng: random.Random) -> list[str]:
    d = Draw(rng)
    pick = rng.random()
    if pick < 0.84:
        return _eval(d)
    if pick < 0.91:
        return _limit(d)
    if pick < 0.97:
        return _modes(d)
    return _verify(d)


class _Alarm(BaseException):
    """Raised by SIGALRM; a BaseException, so no handler in the CLI takes it."""


def _ring(signum, frame):
    raise _Alarm


def problem(argv: list[str], alarm_s: float = ALARM_S) -> str | None:
    """What is wrong with one in-process run of argv, or None."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.setitimer(signal.ITIMER_REAL, alarm_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Alarm:
        return f"ran past {alarm_s} s"
    except Exception as exc:  # a traceback
        return f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if code == 2:
        errors = [line for line in err.splitlines() if "error:" in line]
        if out or len(errors) != 1 or not err.endswith(errors[0] + "\n"):
            return f"exit 2 with stdout {out!r} and stderr {err!r}"
    if code == 0 and _NON_FINITE.search(out):
        return f"exit 0 printed a non-finite value: {out!r}"
    return None


@pytest.mark.parametrize("seed", range(1, 6))
def test_cli_fuzz_ends_every_run_cleanly(seed):
    rng = random.Random(seed)
    argvs = [draw_argv(rng) for _ in range(VECTORS_PER_SEED)]
    failures = [(argv, why) for argv in argvs if (why := problem(argv)) is not None]
    assert failures == []


def test_verify_near_q_one_forms_no_theta_product_on_the_dual_side(monkeypatch):
    # at q^4 = 0.98 each theta product took about 1 800 factors, and this run
    # spent 2.6 s forming f-two-path's 200 candidates before it exited 2; the
    # dual nome forms each theta there with a factor a product, so no theta
    # pair is formed at a base from the crossover on.  The run takes 1.2-1.8 s on
    # two idle cores (kappa_inv's rows and the g and center series are most
    # of it), so the time limit here only catches a hang
    pair, bases = qseries._theta_pair, []

    def recorded(x, base):
        bases.append(base)
        return pair(x, base)

    monkeypatch.setattr(qseries, "_theta_pair", recorded)
    assert problem(["verify", "--suite=all", "--q=0.995", "--max-terms=4096",
                    "--format=json"], alarm_s=60.0) is None
    assert bases and not [base.given for base in bases if base.big >= qseries._CROSSOVER]


if __name__ == "__main__":
    seed, seconds = int(sys.argv[1]), float(sys.argv[2])
    rng = random.Random(seed)
    runs = failed = 0
    stop = time.monotonic() + seconds
    while time.monotonic() < stop:
        argv = draw_argv(rng)
        runs += 1
        why = problem(argv)
        if why is not None:
            failed += 1
            print(argv, why, flush=True)
    print(f"seed {seed}: {runs} runs, {failed} failed")
