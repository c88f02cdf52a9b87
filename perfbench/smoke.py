"""Smoke test of the benchmark itself (about two minutes on two cores):

    python3 perfbench/smoke.py

1. every workload in BENCHMARK.json runs briefly, passes its gates and
   prints exactly the end-to-end metrics BENCHMARK.json names, with their
   units; one traced run prints exactly the per-layer metrics;
2. the hang guard: a known hanging input (``verify --suite theorem6
   --q 0.999 --max-terms 8``) under a 3 s cap ends the run with exit 1 and a
   recorded failure, both in a fresh set-up interpreter and in-process;
3. the gates: with the truncation tail loosened to 1e-4 through
   ELLEX_DEFAULT_TOL every workload must fail and exit 1;
4. a directory holding only BENCHMARK.json and perfbench/ makes the
   benchmark exit non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str, env: dict | None = None) -> tuple[int, dict | None, float, str]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=175,
                          env={**os.environ, **(env or {})})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, time.perf_counter() - t0, proc.stdout + proc.stderr


def expect(ok: bool, what: str, failures: list[str], output: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)
        print(output[-2000:])


def metric_units(result: dict | None) -> dict:
    return {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}


def main() -> int:
    failures: list[str] = []
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    for w in SPEC["workloads"]:
        rc, result, _, out = bench(ROOT, "--workload", w["name"], "--seed", "3",
                                   "--seconds", "1", "--trace", "0")
        expect(rc == 0 and result["correct"] and metric_units(result) == e2e,
               f"{w['name']}: passes its gates and prints the end-to-end metrics", failures, out)
    rc, result, _, out = bench(ROOT, "--workload", "modes", "--seed", "3",
                               "--seconds", "2", "--trace", "1")
    expect(rc == 0 and result["correct"] and metric_units(result) == layers,
           "traced run prints the per-layer metrics", failures, out)

    for trace in ("0", "1"):
        rc, result, seconds, out = bench(ROOT, "--workload", "hang-guard", "--seed", "7",
                                         "--seconds", "1", "--trace", trace)
        expect(rc == 1 and result is not None and not result["correct"]
               and result["failed"] >= 1 and seconds < 60,
               f"hang guard (--trace {trace}): capped, recorded, exit 1 in {seconds:.1f} s",
               failures, out)

    for w in SPEC["workloads"]:
        rc, result, _, out = bench(ROOT, "--workload", w["name"], "--seed", "3",
                                   "--seconds", "1", "--trace", "0",
                                   env={"ELLEX_DEFAULT_TOL": "1e-4"})
        expect(rc == 1 and result is not None and not result["correct"],
               f"{w['name']}: loosened truncation fails the gate", failures, out)

    bare = ROOT / ".bench_out" / "tmp" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, result, _, out = bench(bare, "--workload", SPEC["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(rc != 0 and result is None, "without src/ellex: non-zero exit, no result",
               failures, out)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke test passed" if not failures else f"{len(failures)} smoke check(s) failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
