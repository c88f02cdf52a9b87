"""Check results and verification reports with deterministic serialization.

``json_bytes`` builds the envelope of every JSON output (verify, limit, eval
and modes): it alone stamps ``schema`` and ``tool_version``; ``csv_text``
writes every CSV output.  The JSON excludes wall-clock timings so that two
runs with identical configuration produce byte-identical files; timings are
in the text rendering.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from . import __version__

SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Deterministic JSON encoding; complex values become 'a+bj' strings."""
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def json_bytes(payload: dict) -> bytes:
    """The payload made JSON-safe, stamped with ``schema`` and ``tool_version``,
    in canonical form: sorted keys, no spaces, ASCII, one trailing newline."""
    doc = {**_jsonable(payload), "schema": SCHEMA_VERSION, "tool_version": __version__}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def csv_text(rows: Iterable[Iterable]) -> str:
    """One line per row, the header first, written by the stdlib csv writer,
    which quotes a field that holds a comma."""
    import csv  # here, so that the json and text formats never load it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@dataclass
class CheckResult:
    """Outcome of one named identity check at one parameter point."""

    check_id: str
    params: dict
    max_abs_error: float
    tolerance: float
    passed: bool
    wall_time_s: float = 0.0
    info: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "check_id": self.check_id,
            "params": self.params,
            "max_abs_error": float(self.max_abs_error),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        if self.info:
            d["info"] = self.info
        return d


@dataclass
class VerificationReport:
    """A named suite of checks plus the configuration that produced it."""

    suite: str
    checks: list[CheckResult]
    config: dict = field(default_factory=dict)

    @property
    def aggregate_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_error(self) -> float:
        return max((c.max_abs_error for c in self.checks), default=0.0)

    def to_json_bytes(self) -> bytes:
        return json_bytes({
            "suite": self.suite,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "aggregate_pass": self.aggregate_pass,
        })

    def to_csv_text(self) -> str:
        return csv_text([("suite", "check_id", "max_abs_error", "tolerance", "pass", "params")] + [
            (self.suite, c.check_id, c.max_abs_error, c.tolerance, int(c.passed),
             ";".join(f"{k}={_jsonable(v)}" for k, v in sorted(c.params.items())))
            for c in self.checks
        ])

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.aggregate_pass else 'FAIL'}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.check_id:<28} max_err={c.max_abs_error:.3e} "
                f"tol={c.tolerance:.1e} ({c.wall_time_s * 1e3:.1f} ms)"
            )
        return "\n".join(lines) + "\n"


def merge_reports(
    reports: list[VerificationReport], suite: str, config: dict
) -> VerificationReport:
    """One report of every check of ``reports``, in order, under the run's config."""
    return VerificationReport(suite, [c for r in reports for c in r.checks], config)
