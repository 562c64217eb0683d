"""Span tracing from outside the program, for the benchmark's traced runs.

The wrappers here are installed around the public functions of each
layer (see ``layers.json``); nothing under ``src/`` knows about them.
A span records ``[name, start, end, parent, op, attrs]``: ``parent``
is the index of the enclosing span on the same thread (``-1`` at top
level) and ``op`` the benchmark operation that was running.  Spans stay
in memory and are written out once, when the run ends.

:meth:`Tracer.install` rebinds every reference to a wrapped function
in the loaded ``repro`` modules, because the program imports many of
them by name (``from repro.observe import build_report``);
:meth:`Tracer.uninstall` puts every original back, including references
bound by modules imported while tracing was on.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One wrap target: (span name, owner, attribute, pre hook, post hook).
#: ``owner`` is a module or a class.  ``pre()`` runs before the call;
#: ``post(args, result, pre_value)`` returns the span's attrs.
Target = Tuple[str, Any, str, Optional[Callable], Optional[Callable]]


class Tracer:
    """In-memory span recorder plus the wrap/unwrap machinery."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._originals: Dict[int, Tuple[Any, Any]] = {}  # id(wrapper)
        self._wrappers: List[Tuple[Any, str, Any]] = []    # class patches
        self.installed = False

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.op, None]
            with tracer._lock:
                tracer.spans.append(span)
                idx = len(tracer.spans) - 1
            before = pre() if pre is not None else None
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                span[5] = post(args, result, before)
            return result

        self._originals[id(traced)] = (traced, fn)
        return traced

    def install(self, targets: Sequence[Target]) -> None:
        if self.installed:
            return
        modules = _repro_modules()
        for name, owner, attr, pre, post in targets:
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, pre, post)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._wrappers.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original in self._wrappers:
            setattr(owner, attr, original)
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self._wrappers.clear()
        self._originals.clear()
        self.installed = False

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as fp:
            json.dump(spans, fp)


def _repro_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


# -- what gets wrapped ----------------------------------------------------

def _count_cells(args: tuple, result: Any, before: Any) -> dict:
    return {"cells": len(args[0])}


def _cache_hit(args: tuple, result: Any, before: Any) -> dict:
    return {"hit": result is not None}


def _engine_stats(args: tuple, result: Any, before: Any) -> dict:
    # Cumulative per engine; the aggregation keeps the last per engine.
    stats = args[0].stats
    return {"engine": id(args[0]), "hits": stats.hits,
            "misses": stats.misses}


def _task_fastpath(args: tuple, result: Any, before: Any) -> dict:
    return {"fastpath": result[1]["fastpath"]}


def _ticks(args: tuple, result: Any, before: Any) -> dict:
    return {"ticks": result.ticks}


def _scan_before() -> dict:
    from repro.check.recurrence import scan_counters

    return scan_counters()


def _scan_delta(args: tuple, result: Any, before: dict) -> dict:
    from repro.check.recurrence import scan_counters

    after = scan_counters()
    return {k: after[k] - before[k] for k in ("scans", "memo_hits")}


def _fetch_outcome(args: tuple, result: Any, before: Any) -> dict:
    return {"misses": result[1].misses}


def _observe_targets() -> List[Target]:
    from repro.observe import report
    from repro.serve import targets as serve_targets

    return ([("observe.report", report, f, None, None)
             for f in ("build_report", "strip_volatile", "write_report")]
            + [("observe.report", serve_targets, "manifest_bytes",
                None, None)])


def _common_targets() -> List[Target]:
    from repro.check import preflight, races, recurrence
    from repro.model import oracle
    from repro.sweep.cache import ResultCache
    from repro.sweep.cells import SweepCell
    from repro.telemetry.bus import TelemetryBus

    return [
        ("cells.key", SweepCell, "key", None, None),
        ("cache.get", ResultCache, "get", None, _cache_hit),
        ("cache.put", ResultCache, "put", None, None),
        ("check.preflight", preflight, "preflight_cells", None,
         _count_cells),
        ("check.races", races, "detect_races", None, None),
        ("check.certify", recurrence, "certify_tiled", _scan_before,
         _scan_delta),
        ("model.oracle", oracle, "oracle_cells", None, _count_cells),
        ("model.section", oracle, "fig1_model_section", None, None),
        ("model.section", oracle, "fig2_model_section", None, None),
        ("telemetry.emit", TelemetryBus, "emit", None, None),
    ] + _observe_targets()


def cli_targets() -> List[Target]:
    """Everything a CLI sweep runs through, in one process."""
    import repro.cli as cli
    from repro.isa import trace
    from repro.runtime.program import Program
    from repro.sweep import engine
    from repro.workloads import WORKLOADS

    targets = [
        ("cli", cli, "main", None, None),
        ("engine", engine.SweepEngine, "run", None, _engine_stats),
        ("engine.execute", engine, "_execute_task", None, _task_fastpath),
        ("trace.compile", trace, "compile_tiled", None, None),
        ("trace.compile", trace, "compile_stream", None, None),
        ("sim.run", Program, "run", None, _ticks),
    ]
    targets += [("workloads.build", module, "build", None, None)
                for module in WORKLOADS.values()]
    return targets + _common_targets()


def serve_targets() -> List[Target]:
    """The daemon process's layers (pool workers report through the
    telemetry spool instead)."""
    from repro.serve.scheduler import CellScheduler

    return [("serve.fetch", CellScheduler, "fetch", None, _fetch_outcome)
            ] + _common_targets()


# -- aggregation ------------------------------------------------------------

def summarize(spans: Sequence[list]) -> dict:
    """Fold spans into per-name totals.

    ``total_s`` counts only spans with no ancestor of the same name (so
    ``manifest_bytes`` calling ``strip_volatile`` is not counted twice);
    ``self_s`` is each span's duration minus what its children cover.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: Dict[str, dict] = {}
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "attrs": []})
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["total_s"] += dur
        if s[5] is not None:
            agg["attrs"].append(s[5])
    return out
