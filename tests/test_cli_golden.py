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
        "b466023958684a9836e169a8a850f877f00c415a1df1d4d40c1a7c55b4e8c123"),
    "klimit-q0.5-annulus1": (
        "--q=0.5 --annulus=1 --nodes=512 --lmax=32 --m=-1 --k=2",
        "742aa2d396cb313e96ab667a5d544c6d4d8c8ec7937a765801db939b5547927f"),
    "klimit-q0.7-annulus0": (
        "--q=0.7 --annulus=0 --nodes=512 --lmax=32 --m=3 --k=3",
        "654b973fa6b97ed3a589ae19b9a04c66b4eba166f72d94a1f4ae56ed9ac6d7e3"),
    "klimit-q0.7-annulus1": (
        "--q=0.7 --annulus=1 --nodes=512 --lmax=32 --m=-2 --k=2",
        "56566c9d1a72ab0b7735eecc393add2700aa9b74b0e56759c8c0c798f54e43a8"),
    "center-q0.5-annulus0": (
        "--q=0.5 --annulus=0 --nodes=512 --lmax=32",
        "e39b9d2b9ff36e8190ba1ab207c67b1f242cc57a8b13763d563db274dff6aaed"),
    "center-q0.5-annulus1": (
        "--q=0.5 --annulus=1 --nodes=512 --lmax=32",
        "4ee24d11b733e839b3fd67b98d4ef1d8c8c5e3e8dfefcc7134ebdb1fa644388c"),
    "center-q0.7-annulus0": (
        "--q=0.7 --annulus=0 --nodes=512 --lmax=32",
        "8b54efe40cf889778b5b2ca7b1052a915972cce390f4dc87a2631220160477f9"),
    "center-q0.7-annulus1": (
        "--q=0.7 --annulus=1 --nodes=512 --lmax=32",
        "73abf364c37e0a0be35dc0e0178b89b4077cef7e4cb8ce48ec1239040e537036"),
    "center-q0.3+0.4j-annulus0": (
        "--q=0.3+0.4j --annulus=0 --nodes=128 --lmax=8",
        "d1b6e36142803372cd4a38b5b9924cdbe488e2c3beb01091c4edf71237583481"),
    "klimit-q-0.6-annulus-1": (
        "--q=-0.6 --annulus=-1 --nodes=128 --lmax=6 --m=1 --k=2",
        "bb22db0a7a6ec305f3a417e8eef4e971aaa1beea6f026929bc9a49cedb228294"),
    "klimit-q0.2-0.5j-annulus-2": (
        "--q=0.2-0.5j --annulus=-2 --nodes=128 --lmax=4 --m=-3 --k=1",
        "289d30970d14b2dc13111667467dfa8761eba1a5e2b8c6810dac195355df11ed"),
    "center-q-0.45-annulus-1": (
        "--q=-0.45 --annulus=-1 --nodes=128 --lmax=6",
        "b3f60979350ca915b3c9d49ad0aed7215732ea66744851fe8f8ba9304b04a13c"),
    "center-q0.25j-annulus-1": (
        "--q=0.25j --annulus=-1 --nodes=128 --lmax=6",
        "198a5515b475767d6cad6a2d24c35a16270326706592265eff5df2fc4e9dc5aa"),
    "center-q-0.3-0.3j-annulus-3": (
        "--q=-0.3-0.3j --annulus=-3 --nodes=128 --lmax=3",
        "5e51789befda5f153a0347903a6f95b03343193bbfb640f8d2d103f0873fd4c9"),
    "klimit-q0.55+0.1j-annulus2": (
        "--q=0.55+0.1j --annulus=2 --nodes=128 --lmax=5 --m=2 --k=-3",
        "4a8e087d4d92bb1ba66d698f6fba88508bd6955c224aae2baec45743d05b11c8"),
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
