"""Recorded stdout of eval, modes, limit and verify in every output format.

Each case runs ``cli.main`` in-process and compares its exit code and stdout
byte for byte with tests/data/cli_golden.json.  Only the ``(… ms)`` timings
of text reports are masked.  After a deliberate output change, rewrite the
recordings with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the names of the recordings it added, changed and removed.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from ellex.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
_TIMING = re.compile(r"\(\d+\.\d ms\)")

_EVAL_POINTS = {
    "theta": (["--a", "0.5"], ["1.1+0.2j", "2.5"]),
    "tau": (["--q", "0.5"], ["1.3", "0.8-0.4j"]),
    "mu": (["--p", "0.2", "--q", "0.5"], ["1.1"]),
    "kappa": (["--p", "0.2", "--q", "-0.45"], ["1.1+0.2j"]),
    "F": (["--m", "2", "--p", "0.2", "--q", "0.45"], ["1.3", "0.9+0.3j"]),
    "Y": (["--m", "-1", "--p", "q^2", "--q", "0.5"], ["1.3"]),
    "g": (["--q", "0.5"], ["1.3"]),
    "center": (["--q", "0.5"], ["1.3", "0.7+0.5j"]),
    "ps1": (["--q", "0.45"], ["1.2"]),
    "gk": (["--m", "1", "--k", "2", "--q", "0.5"], ["1.3"]),
    "snh": (["--u", "0.7", "--modulus", "0.5"], []),
    "K": (["--modulus", "0.5"], []),
}


def _commands() -> dict[str, list[str]]:
    base = {}
    for fn, (params, xs) in _EVAL_POINTS.items():
        base[f"eval-{fn}"] = ["eval", "--fn", fn, *params, *(f"--x={x}" for x in xs)]
    base["modes-pairs"] = ["modes", "--q", "0.5", "--m", "1", "--k", "1", "--lmax", "4",
                           "--pairs", "1:-1,2:2"]
    base["limit-default"] = ["limit", "--m", "1", "--k", "1", "--q", "0.5", "--x", "1.4"]
    base["limit-two-betas"] = [*base["limit-default"], "--betas", "1e-2,1e-3"]
    # its 1e-2 to 1e-3 order is pre-asymptotic; the two finest steps are not
    base["limit-late-asymptotics"] = ["limit", "--m", "3", "--k", "3", "--q", "0.6", "--x", "1.1"]
    base["verify-beta-limit"] = ["verify", "--suite", "beta-limit"]
    return {
        f"{name}.{fmt}": [*argv, "--format", fmt]
        for name, argv in base.items()
        for fmt in ("json", "csv", "text")
    }


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": _TIMING.sub("(… ms)", out.getvalue())}


COMMANDS = _commands()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_recording(name):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert recorded["argv"] == COMMANDS[name]
    assert _run(COMMANDS[name]) == recorded


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    cases = {name: _run(argv) for name, argv in COMMANDS.items()}
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    scope = {
        "added": sorted(cases.keys() - old.keys()),
        "changed": sorted(n for n in cases.keys() & old.keys() if cases[n] != old[n]),
        "removed": sorted(old.keys() - cases.keys()),
    }
    for what, names in scope.items():
        sys.stdout.write(f"{what} ({len(names)}): {' '.join(names) or '-'}\n")
    sys.stdout.write(f"recorded {len(cases)} outputs in {GOLDEN}\n")
