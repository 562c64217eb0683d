"""The event bus: process-safe, versioned JSONL telemetry records.

Design constraints, in order:

* **Process safety without locks.**  Sweep workers and the parent all
  append to one log file.  Each record is serialized to a single line
  and written with one ``os.write`` on an ``O_APPEND`` descriptor —
  POSIX guarantees the kernel applies such writes atomically at the
  current end of file, so concurrent emitters interleave *records*,
  never bytes.  The property test in ``tests/telemetry`` hammers this
  from multiple processes and asserts no line ever tears.
* **Comparable clocks.**  Spans use ``time.monotonic``, which on Linux
  reads the system-wide ``CLOCK_MONOTONIC`` — timestamps taken in a
  worker are directly comparable to the parent's, which is what makes
  per-cell queue-wait (dispatch-to-start latency) measurable at all.
* **Versioned schema.**  Every record carries the envelope below plus
  the payload fields its event declares in :data:`EVENT_FIELDS`.
  ``schema_fingerprint()`` digests the whole declaration; the perf
  ledger fails CI when the fingerprint moves without a
  :data:`TELEMETRY_SCHEMA_VERSION` bump.
* **Zero dependencies, zero influence.**  Stdlib only, and nothing read
  from the bus may flow into results, non-volatile report sections, or
  cache keys.

A reader may observe a final record mid-write (the tail of the file is
the only place a partial line can exist); :func:`read_events` therefore
tolerates an undecodable tail and simply stops there — ``repro top``
picks the record up on its next poll.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Iterator, List, Optional

#: Bumped on any change to the envelope or to :data:`EVENT_FIELDS`.
#: The perf-regression ledger cross-checks this against
#: :func:`schema_fingerprint` — changing the schema without bumping the
#: version fails the CI ledger check.
TELEMETRY_SCHEMA_VERSION = 1

#: Fields present on every record, in emission order.
ENVELOPE = ("v", "ev", "ts", "pid", "run")

#: Event name -> required payload fields.  ``cell`` is a human-readable
#: label (:func:`repro.sweep.cells.cell_label`), ``idx`` the cell's
#: submission index within its sweep batch.
EVENT_FIELDS: Dict[str, tuple] = {
    # One engine.run() batch begins: total cells and execution shape.
    "sweep-begin": ("cells", "jobs", "cache_enabled"),
    # Cache probe outcomes, one event per cell.
    "cache-hit": ("idx", "cell"),
    "enqueue": ("idx", "cell"),
    # Worker-side simulate span.  queue_wait_s = begin ts - enqueue ts.
    "cell-begin": ("idx", "cell", "queue_wait_s"),
    # wall_s covers the simulate alone; fastpath is the per-cell delta
    # of repro.cpu.fastpath.FastpathStats.to_dict().  A preflight
    # rejection emits one synthetic cell-end (idx -1, cell
    # "preflight", empty fastpath) carrying extra ``rejected`` (batch
    # size) and ``check`` (rejecting pass, e.g. "compose") fields.
    "cell-end": ("idx", "cell", "wall_s", "fastpath"),
    # Parent-side phase spans: preflight / probe / execute / store /
    # oracle.
    "phase": ("name", "wall_s"),
    "sweep-end": ("cells", "hits", "misses", "wall_s"),
}

#: Environment switch: "0"/"false"/"off"/"no" disable telemetry
#: process-wide (the test suite and the perf-smoke CI leg set this).
ENV_VAR = "REPRO_TELEMETRY"

#: Where logs go unless a directory/path is given explicitly.
ENV_DIR_VAR = "REPRO_TELEMETRY_DIR"
DEFAULT_DIR = ".repro-telemetry"

#: The one encoder every record goes through: ``json.dumps`` with a
#: non-default argument builds a new ``JSONEncoder`` per call.  The
#: lines are those of ``json.dumps(record, separators=(",", ":"))``.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def schema_fingerprint() -> str:
    """SHA-256 digest of the full schema declaration.

    A stable function of (version, envelope, event fields): any edit to
    the record layout moves it, which is exactly the condition the
    ledger's schema check wants to observe.
    """
    decl = {
        "version": TELEMETRY_SCHEMA_VERSION,
        "envelope": list(ENVELOPE),
        "events": {name: list(fields)
                   for name, fields in sorted(EVENT_FIELDS.items())},
    }
    text = json.dumps(decl, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def validate_event(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the schema."""
    for f in ENVELOPE:
        if f not in record:
            raise ValueError(f"record missing envelope field {f!r}")
    if record["v"] != TELEMETRY_SCHEMA_VERSION:
        raise ValueError(f"schema version {record['v']!r} != "
                         f"{TELEMETRY_SCHEMA_VERSION}")
    ev = record["ev"]
    fields = EVENT_FIELDS.get(ev)
    if fields is None:
        raise ValueError(f"unknown event {ev!r}")
    for f in fields:
        if f not in record:
            raise ValueError(f"{ev!r} record missing field {f!r}")


def enabled_by_env(environ: Optional[dict] = None) -> bool:
    """Whether the environment allows telemetry (default: yes)."""
    env = os.environ if environ is None else environ
    return env.get(ENV_VAR, "1").strip().lower() not in (
        "0", "false", "off", "no")


def default_dir(environ: Optional[dict] = None) -> str:
    env = os.environ if environ is None else environ
    return env.get(ENV_DIR_VAR, DEFAULT_DIR)


def now() -> float:
    """The bus clock (system-wide monotonic; see module docstring)."""
    return time.monotonic()  # check: allow(wall-clock)


def new_log_path(directory: Optional[str] = None,
                 prefix: str = "sweep") -> str:
    """A fresh, collision-free log path under the telemetry directory.

    The name embeds wall time and pid — unique per process per
    nanosecond, and lexicographic order matches creation order so
    :func:`latest_log` can sort by name.
    """
    d = default_dir() if directory is None else directory
    os.makedirs(d, exist_ok=True)
    stamp = time.time_ns()  # check: allow(wall-clock)
    return os.path.join(d, f"{prefix}-{stamp:020d}-{os.getpid()}.jsonl")


def latest_log(directory: Optional[str] = None) -> Optional[str]:
    """The most recently created log in ``directory``, or ``None``."""
    d = default_dir() if directory is None else directory
    try:
        # Order-insensitive: the listing is reduced with max() below.
        names = [n for n in os.listdir(d)  # check: allow(unordered-fs)
                 if n.endswith(".jsonl")]
    except OSError:
        return None
    if not names:
        return None
    return os.path.join(d, max(names))


def read_events(path: str,
                validate: bool = False) -> Iterator[dict]:
    """Parse a recorded log, tolerating a torn (mid-write) tail.

    Any line that fails to decode ends the iteration: with atomic
    appends the only partial line a reader can ever observe is the
    final one, still being written.
    """
    with open(path, "rb") as fp:
        for raw in fp:
            try:
                record = json.loads(raw)
            except ValueError:
                return
            if validate:
                validate_event(record)
            yield record


class TelemetryBus:
    """Appends schema-validated records to one JSONL log.

    Safe to share across forked workers, and safe for a spawn-start
    worker to reconstruct from ``path`` — every emitter opens its own
    ``O_APPEND`` descriptor and writes whole records.
    """

    def __init__(self, path: str, run_id: Optional[str] = None):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # Derive the run id from the log name by default: every process
        # appending to one file then tags its records identically.
        self.run_id = run_id if run_id is not None else (
            os.path.basename(path).rsplit(".", 1)[0])
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                           0o644)

    def emit(self, ev: str, **fields: Any) -> dict:
        """Append one record; returns it (tests assert on the echo)."""
        record = {"v": TELEMETRY_SCHEMA_VERSION, "ev": ev, "ts": now(),
                  "pid": os.getpid(), "run": self.run_id}
        record.update(fields)
        validate_event(record)
        line = _ENCODER.encode(record) + "\n"
        os.write(self._fd, line.encode())
        return record

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except OSError:
            pass

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def events_by_type(events: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for e in events:
        out.setdefault(e.get("ev", "?"), []).append(e)
    return out
