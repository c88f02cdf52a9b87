"""The seed-7 reference report of ``ellex verify --suite all``.

    python3 perfbench/reference.py           # compare this tree with the reference
    python3 perfbench/reference.py --write   # record this tree as the reference

The reference (reference_seed7.json, next to this file) holds the sha256 of
the serial seed-7 JSON report and every check's ``max_abs_error``.  A change
that keeps the report byte-identical can say so; one that does not can name
the checks whose residuals moved, which is what the comparison prints.  Exits
0 when the report is byte-identical to the reference and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_seed7.json"
SEED = 7


def summarize(report_bytes: bytes) -> dict:
    report = json.loads(report_bytes)
    return {
        "seed": SEED,
        "command": "ellex verify --suite all --format json --seed 7",
        "report_sha256": hashlib.sha256(report_bytes).hexdigest(),
        "max_abs_error": {c["check_id"]: c["max_abs_error"] for c in report["checks"]},
    }


def compare(report_bytes: bytes, reference: dict) -> dict:
    """Whether a seed-7 report matches the reference, and which checks moved.

    A report from ``--parallel N`` carries N in its config, so only its
    residuals can match; ``identical`` then is False by construction."""
    now = summarize(report_bytes)
    old = reference["max_abs_error"]
    new = now["max_abs_error"]
    moved = {
        cid: {"reference": old.get(cid), "now": new.get(cid)}
        for cid in sorted(set(old) | set(new))
        if old.get(cid) != new.get(cid)
    }
    return {"identical": now["report_sha256"] == reference["report_sha256"],
            "moved_checks": moved}


def current_report(scratch: Path) -> bytes:
    sys.path.insert(0, str(ROOT / "src"))
    import ellex.cli

    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "reference-report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ellex.cli.main(["verify", "--suite", "all", "--format", "json",
                             "--seed", str(SEED), "--output", str(out)])
    data = out.read_bytes()
    out.unlink()
    if rc != 0:
        raise SystemExit(f"verify --suite all exited {rc}")
    return data


def main(argv: list[str]) -> int:
    data = current_report(ROOT / ".bench_out" / "tmp")
    if argv == ["--write"]:
        REFERENCE.write_text(json.dumps(summarize(data), indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
        return 0
    result = compare(data, json.loads(REFERENCE.read_text()))
    print("report byte-identical to the seed-7 reference"
          if result["identical"] else "report differs from the seed-7 reference")
    for cid, pair in result["moved_checks"].items():
        print(f"  {cid}: {pair['reference']!r} -> {pair['now']!r}")
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
