"""Recorded stdout of eval, modes, limit and verify in every output format.

Each case runs ``cli.main`` in-process and compares its exit code and stdout
byte for byte with tests/data/cli_golden.json.  Only the ``(… ms)`` timings
of text reports are masked.  After a deliberate output change, rewrite the
recordings with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the names of the recordings it added, changed and removed.
"""

import contextlib
import hashlib
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


# sha256 of the JSON stdout of large modes tables, each with the bracket
# pairs 1:-1, 2:0 and -3:4: the eight workload-shaped ones (512 nodes, lmax
# 32), then complex-q and negative-annulus ones
_TABLE_DIGESTS = {
    "klimit-q0.5-annulus0": (
        "--q=0.5 --annulus=0 --nodes=512 --lmax=32 --m=2 --k=1",
        "f3596ca557d161afb692e60d1e0dba0ee322b1a2990354a53f7f232e9fbfb4f8"),
    "klimit-q0.5-annulus1": (
        "--q=0.5 --annulus=1 --nodes=512 --lmax=32 --m=-1 --k=2",
        "2c388e10ecad13b87049d3e8d9b6ebbcc19427a5b72303ef3d316d62f82fe6d6"),
    "klimit-q0.7-annulus0": (
        "--q=0.7 --annulus=0 --nodes=512 --lmax=32 --m=3 --k=3",
        "d05f68c076c179725e02e3b4dbe7f9ccf96e87173ec6e31ad73911122303d62c"),
    "klimit-q0.7-annulus1": (
        "--q=0.7 --annulus=1 --nodes=512 --lmax=32 --m=-2 --k=2",
        "37ea56399facf5b2837d7110aaa3c1f6d5d8859b8cd38c48c5acebd234adf612"),
    "center-q0.5-annulus0": (
        "--q=0.5 --annulus=0 --nodes=512 --lmax=32",
        "9dd53fcdbf65bc88665c3c3b09c98cdf30108e17e00f017e50a8fbd34fff982c"),
    "center-q0.5-annulus1": (
        "--q=0.5 --annulus=1 --nodes=512 --lmax=32",
        "9ba142b3ba0c7f8b0e8d6fece1c9e821b6b6eccd8d6ad6bf316f692b2708f967"),
    "center-q0.7-annulus0": (
        "--q=0.7 --annulus=0 --nodes=512 --lmax=32",
        "c76f8bc83208daa708606f03a997f6cce570617ec517c09a3df82d2e83188c4a"),
    "center-q0.7-annulus1": (
        "--q=0.7 --annulus=1 --nodes=512 --lmax=32",
        "2ed3c3916a44fbc138f14a26409f6b747f68aac1c1fed87a3f80da50590915df"),
    "center-q0.3+0.4j-annulus0": (
        "--q=0.3+0.4j --annulus=0 --nodes=128 --lmax=8",
        "09ea1bcee0853774afa7a784ec3d96e6bc2de3131f7d31b6f8959ca59ec38f75"),
    "klimit-q-0.6-annulus-1": (
        "--q=-0.6 --annulus=-1 --nodes=128 --lmax=6 --m=1 --k=2",
        "8fcbe95fbef7a047f76cc04ba66f9b25c4a9a5cb6fec12d38496975e0c8b6a6f"),
    "klimit-q0.2-0.5j-annulus-2": (
        "--q=0.2-0.5j --annulus=-2 --nodes=128 --lmax=4 --m=-3 --k=1",
        "c9fe3f154af2d9b0fbc27ee28306b3b05c6f0f30084d91208bd5e0d7f76e24d4"),
    "center-q-0.45-annulus-1": (
        "--q=-0.45 --annulus=-1 --nodes=128 --lmax=6",
        "182823809a1799b29813d42385d83ef2085e3586afaa124353149dc93a7dab9f"),
    "center-q0.25j-annulus-1": (
        "--q=0.25j --annulus=-1 --nodes=128 --lmax=6",
        "8259e5348e7f52420ef4b66253db0c9cc0c38c5cc792a4c02340601aa9146fc7"),
    "center-q-0.3-0.3j-annulus-3": (
        "--q=-0.3-0.3j --annulus=-3 --nodes=128 --lmax=3",
        "f20b29b68a5cb79a18bc491ac54b621361163d8fa00b8701735c9a131adf3bf7"),
    "klimit-q0.55+0.1j-annulus2": (
        "--q=0.55+0.1j --annulus=2 --nodes=128 --lmax=5 --m=2 --k=-3",
        "04844c98cd8aa0234551415186c68a7733db54e6f9bb917513896d943b6c8f07"),
}


@pytest.mark.parametrize("name", sorted(_TABLE_DIGESTS))
def test_a_large_modes_table_matches_its_digest(name):
    args, digest = _TABLE_DIGESTS[name]
    which = name.split("-")[0]
    out = _run(["modes", f"--which={which}", *args.split(), "--pairs=1:-1,2:0,-3:4",
                "--format", "json"])
    assert out["exit"] == 0
    assert hashlib.sha256(out["stdout"].encode()).hexdigest() == digest


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
