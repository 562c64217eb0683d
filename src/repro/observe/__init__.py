"""Observability for the simulated machine.

The paper's whole argument is an *attribution* argument: SMT slowdowns
are pinned on specific shared resources (the store-buffer allocator,
ALU0, the single FP unit — figs. 3-5, Table 1).  This package gives the
reproduction the same explanatory power LIKWID-style derived metrics
give real hardware:

* :mod:`repro.observe.tracer` — a trace-hook protocol with a
  zero-overhead :class:`NullTracer` default and a
  :class:`PipelineTracer` that records per-tick structured pipeline
  events, exportable as JSONL or Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto, one track per logical CPU x stage);
* :mod:`repro.observe.accountant` — a per-cycle slot accountant that
  classifies every allocate and issue slot, per thread per cycle, into
  a top-down stall taxonomy (conservation: each thread's categories sum
  exactly to the machine width times the accounted cycles);
* :mod:`repro.observe.heatmap` — a per-site (per-PC) L2-miss profiler
  shared by the memory hierarchy hook and the SPR delinquency step;
* :mod:`repro.observe.report` — versioned structured run reports
  (config, counters, stall breakdown, wall time) behind every driver's
  ``--report`` / ``--json`` flag.
"""

from repro.observe.tracer import (
    NULL_TRACER,
    NullTracer,
    PipelineTracer,
    TraceEvent,
    Tracer,
)
from repro.observe.accountant import (
    ALLOC_CATEGORIES,
    ISSUE_CATEGORIES,
    CycleAccountant,
    SlotBreakdown,
)
from repro.observe.heatmap import SiteMissProfile
from repro.observe.report import (
    SCHEMA_VERSION,
    VOLATILE_KEYS,
    build_report,
    indented_json,
    result_to_dict,
    strip_volatile,
    write_report,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "PipelineTracer",
    "TraceEvent",
    "CycleAccountant",
    "SlotBreakdown",
    "ALLOC_CATEGORIES",
    "ISSUE_CATEGORIES",
    "SiteMissProfile",
    "SCHEMA_VERSION",
    "VOLATILE_KEYS",
    "build_report",
    "indented_json",
    "result_to_dict",
    "strip_volatile",
    "write_report",
]
