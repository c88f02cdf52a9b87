"""Spans around the calls into ellex's modules, recorded from outside the
program: ``Tracer.install`` replaces each public function in every ellex
namespace that refers to it with a wrapper, and ``uninstall`` puts the
originals back.  Spans stay in memory until ``write``.

A span is (id, parent id, op id, name, start ns, end ns); spans of one CLI
invocation share the op id, the id of its ``cli.main`` span.  A layer's self
time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# modules whose every public function (their __all__) is traced
LIBRARY_MODULES = ("qseries", "elliptic", "rmatrix", "exchange", "poisson")
REPORT_METHODS = ("to_json_bytes", "to_text", "to_csv_text")


def _pochhammer_name(args: tuple, kwargs: dict) -> str:
    """qseries.qpochhammer1 / qpochhammer2: one-base and two-base products
    cost very differently, so they are separate layers."""
    bases = args[1] if len(args) > 1 else kwargs["bases"]
    bases = getattr(bases, "bases", bases)
    count = len(bases) if hasattr(bases, "__len__") else 1
    return f"qseries.qpochhammer{count}"


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.enabled = False
        self.suite_reports: dict[str, object] = {}  # suite name -> last report
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        # a forked worker (verify --parallel) keeps the wrappers; its spans
        # could never reach this process, so it stops recording
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _wrap(self, name: str, fn, namer=None, on_return=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else 0
            op = stack[0] if stack else sid
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, op, namer(args, kwargs) if namer else name, t0, t1))
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every ellex module, the suite runners,
        the report serializers and ``cli.main``."""
        import ellex.cli
        import ellex.report
        import ellex.suites

        wrappers: dict[int, object] = {}
        for short in LIBRARY_MODULES:
            mod = importlib.import_module(f"ellex.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    namer = _pochhammer_name if attr == "qpochhammer" else None
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn, namer)
        for fn in (ellex.suites.run_suites, ellex.report.merge_reports, ellex.cli.main):
            short = fn.__module__.rsplit(".", 1)[1]
            wrappers[id(fn)] = self._wrap(f"{short}.{fn.__name__}", fn)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ellex" or name.startswith("ellex.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        cls = ellex.report.VerificationReport
        for attr in REPORT_METHODS:
            self._patch(cls, attr, self._wrap(f"report.{attr}", getattr(cls, attr)))

        suites = ellex.suites.SUITES
        for name, spec in list(suites.items()):
            record = functools.partial(self.suite_reports.__setitem__, name)
            runner = self._wrap(f"suites.{name}", spec.runner, on_return=record)
            self._patch(suites, name, dataclasses.replace(spec, runner=runner))
        self.enabled = True

    def _patch(self, owner, attr: str, value) -> None:
        """Replace a module or class attribute, or a dict item (SUITES)."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Position in the span list, to select the spans recorded after it."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: id,parent,op,name,start_ns,end_ns."""
        with gzip.open(path, "wt") as f:
            f.write("id,parent,op,name,start_ns,end_ns\n")
            for span in self.spans:
                f.write(",".join(map(str, span)) + "\n")


def layer_stats(spans: list[tuple]) -> dict[str, LayerStats]:
    """Calls, inclusive time and self time per span name."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _op, _name, t0, t1 in spans:
        if parent:
            child_ns[parent] += t1 - t0
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for sid, _parent, _op, name, t0, t1 in spans:
        st = stats[name]
        st.calls += 1
        st.incl_ns += t1 - t0
        st.self_ns += t1 - t0 - child_ns.get(sid, 0)
    return dict(stats)


def direct_child_ns(spans: list[tuple], parent_name: str) -> tuple[int, int]:
    """(total duration of spans named parent_name, time covered by their
    direct children)."""
    parents = {sid: t1 - t0 for sid, _p, _o, name, t0, t1 in spans if name == parent_name}
    covered = sum(t1 - t0 for _s, parent, _o, _n, t0, t1 in spans if parent in parents)
    return sum(parents.values()), covered
