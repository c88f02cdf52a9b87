"""Count the Python opcodes one warm in-process run executes.

    python3 tools/count_opcodes.py [--src DIR] [--top N] [-- ARGV ...]

Imports ``ellex`` from DIR (default: this checkout's ``src``) and runs once
to warm the imports and caches, then again under ``sys.settrace`` with
per-opcode events, and prints the opcodes executed in that second run.
With no ARGV the run is every suite at the
default config (seed 7, ``run_suites(["all"])``); with ARGV after ``--``
it is the CLI, ``ellex`` given that argument vector, its output discarded.
The count is
deterministic for one interpreter version (it was taken on CPython 3.11),
so two trees compare by it where wall time on a shared machine is noise.
``--top N`` also prints the N functions that executed the most opcodes,
each with its share of the total.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import pathlib
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = pathlib.Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", default=str(here), help="directory holding the ellex package")
    parser.add_argument("--top", type=int, default=0, help="also list the N busiest functions")
    parser.add_argument("argv", nargs="*", help="a CLI argument vector, after --")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.argv:
        from ellex.cli import main as cli

        def run() -> None:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli(list(args.argv))
    else:
        from ellex.suites import VerifyConfig, run_suites

        def run() -> None:
            run_suites(["all"], VerifyConfig())

    run()
    counts: collections.Counter = collections.Counter()

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if event == "opcode":
            counts[frame.f_code] += 1
        return tracer

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    total = sum(counts.values())
    print(f"opcodes {total}")
    for code, n in counts.most_common(args.top):
        where = f"{pathlib.Path(code.co_filename).name}:{code.co_name}"
        print(f"{n:>10} {n / total:7.2%}  {where}")


if __name__ == "__main__":
    main()
