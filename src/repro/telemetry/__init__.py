"""repro.telemetry — structured run telemetry for sweeps and workers.

The sweep engine, its multiprocessing workers, and the CLI publish the
full cell lifecycle — cache probe → preflight → enqueue → simulate
(with fastpath counters) → oracle → store — as a versioned JSONL event
stream (:mod:`repro.telemetry.bus`).  :mod:`repro.telemetry.collect`
turns a recorded stream into per-phase/per-worker summaries, and
:mod:`repro.telemetry.top` renders a live terminal progress view of a
running sweep (``repro top``).

Telemetry is an *observer*: events carry wall-clock spans and process
ids, so the stream is volatile by construction, and nothing in it may
flow back into results, reports (outside the volatile ``telemetry``
section), or cache keys.  The equivalence suite asserts reports are
byte-identical with telemetry on vs ``--no-telemetry``.
"""

from repro.telemetry.bus import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryBus,
    enabled_by_env,
    latest_log,
    new_log_path,
    read_events,
    schema_fingerprint,
    validate_event,
)
from repro.telemetry.collect import render_summary, summarize

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryBus",
    "enabled_by_env",
    "latest_log",
    "new_log_path",
    "read_events",
    "render_summary",
    "schema_fingerprint",
    "summarize",
    "validate_event",
]
