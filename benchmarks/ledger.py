"""The perf-regression ledger: BENCH snapshots as a tracked time series.

``BENCH_core.json``/``BENCH_model.json``/``BENCH_sweep.json`` are
one-off snapshots — useful, but they overwrite themselves, so nobody
can say how a number *trends* across PRs.  The ledger fixes that:
every bench run appends one JSONL entry (kind, git SHA, host, the full
bench payload, and the telemetry schema version + fingerprint) to
``benchmarks/LEDGER.jsonl``, and ``--check`` walks the trajectory and
fails CI on either of:

* **wall-clock regression** — the newest entry of a kind is more than
  :data:`REGRESSION_TOLERANCE` slower than the previous entry of the
  same kind *on the same host* (cross-host comparisons measure the
  hardware, not the code, so they are never gated);
* **schema drift** — the telemetry event schema fingerprint moved
  without a ``TELEMETRY_SCHEMA_VERSION`` bump (this rule is
  host-independent and always enforced).

Library use (the bench scripts)::

    import ledger
    ledger.append("bench_core", report)

CLI::

    python benchmarks/ledger.py --check     # CI gate
    python benchmarks/ledger.py --show      # render the trajectory
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
from datetime import datetime, timezone

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))

from repro.telemetry.bus import (  # noqa: E402
    TELEMETRY_SCHEMA_VERSION,
    schema_fingerprint,
)

LEDGER_SCHEMA_VERSION = 1
LEDGER_PATH = pathlib.Path(__file__).parent / "LEDGER.jsonl"

#: A same-host wall-time regression beyond this factor fails --check.
REGRESSION_TOLERANCE = 1.25

#: Telemetry-on overhead band for bench_sweep entries (reported, and
#: failed, by --check when exceeded: the tentpole promises bounded
#: overhead, so a gross excursion is a bug, not noise).
OVERHEAD_FAIL_PCT = 10.0

#: A same-host warm-hit p50 regression beyond this factor fails
#: --check: the serve fast path is a measured product guarantee, so a
#: >25% excursion is treated as a perf bug, not noise.
WARM_HIT_TOLERANCE = 1.25

_KINDS = ("bench_core", "bench_model", "bench_sweep", "bench_serve")


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True,
            cwd=pathlib.Path(__file__).parent,
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def head_sha() -> str:
    """HEAD's SHA, suffixed ``+dirty`` when tracked sources under
    ``src/`` differ from it: a row recorded on an uncommitted tree
    measures that tree, not HEAD."""
    sha = _git("rev-parse", "HEAD")
    # _git reads an empty output (a clean tree) as "unknown".
    changed = _git("status", "--porcelain", "--untracked-files=no",
                   "--", ":/src")
    if sha != "unknown" and changed != "unknown":
        return sha + "+dirty"
    return sha


def file_sha(path: os.PathLike) -> str:
    """SHA of the commit that last touched ``path`` (for migrations)."""
    return _git("log", "-n1", "--format=%H", "--", str(path))


def _wall_seconds(entry: dict):
    """The entry's headline wall metric, or None if it has none."""
    data = entry.get("data", {})
    for key in ("total_seconds", "seconds_on", "seconds"):
        if isinstance(data.get(key), (int, float)):
            return float(data[key])
    return None


def make_entry(kind: str, data: dict, git_sha=None, host=None,
               recorded_at=None, source="bench") -> dict:
    if kind not in _KINDS:
        raise ValueError(f"unknown ledger kind {kind!r}; known: {_KINDS}")
    return {
        "ledger_schema_version": LEDGER_SCHEMA_VERSION,
        "kind": kind,
        "git_sha": git_sha if git_sha is not None else head_sha(),
        "host": host if host is not None else platform.node(),
        "python": platform.python_version(),
        "recorded_at": recorded_at if recorded_at is not None else (
            datetime.now(timezone.utc)  # check: allow(wall-clock)
            .isoformat(timespec="seconds")),
        "source": source,
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
        "telemetry_fingerprint": schema_fingerprint(),
        "data": data,
    }


def append(kind: str, data: dict, ledger_path=None, **meta) -> dict:
    """Append one entry (atomic single-write, like the telemetry bus)."""
    path = pathlib.Path(ledger_path) if ledger_path else LEDGER_PATH
    entry = make_entry(kind, data, **meta)
    line = json.dumps(entry, separators=(",", ":")) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)
    return entry


def read(ledger_path=None):
    path = pathlib.Path(ledger_path) if ledger_path else LEDGER_PATH
    entries = []
    if not path.exists():
        return entries
    with open(path) as fp:
        for line in fp:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def check(ledger_path=None, fingerprint=None):
    """Apply the gate rules; return (ok, list of human-readable lines)."""
    entries = read(ledger_path)
    current_fp = fingerprint if fingerprint else schema_fingerprint()
    lines = []
    ok = True
    if not entries:
        return True, ["ledger is empty; nothing to check"]

    # Rule 1: telemetry schema drift without a version bump.  Checked
    # against the most recent entry — the last recorded state of the
    # schema the trajectory was written under.
    last = entries[-1]
    if (last["telemetry_fingerprint"] != current_fp
            and last["telemetry_schema_version"] == TELEMETRY_SCHEMA_VERSION):
        ok = False
        lines.append(
            "FAIL schema: telemetry event schema changed without a "
            f"TELEMETRY_SCHEMA_VERSION bump (still "
            f"{TELEMETRY_SCHEMA_VERSION}; fingerprint "
            f"{last['telemetry_fingerprint'][:12]} -> {current_fp[:12]})")
    else:
        lines.append("ok   schema: telemetry fingerprint consistent "
                     f"(v{TELEMETRY_SCHEMA_VERSION})")

    # Rule 2: per-kind same-host wall-clock regression.
    for kind in _KINDS:
        trail = [e for e in entries if e["kind"] == kind]
        if not trail:
            continue
        newest = trail[-1]
        wall = _wall_seconds(newest)
        prior = [e for e in trail[:-1]
                 if e["host"] == newest["host"]
                 and _wall_seconds(e) is not None]
        if wall is None or not prior:
            lines.append(f"ok   {kind}: no same-host baseline to gate "
                         f"against ({len(trail)} entries)")
            continue
        base = _wall_seconds(prior[-1])
        if wall > REGRESSION_TOLERANCE * base:
            ok = False
            lines.append(
                f"FAIL {kind}: wall {wall:.3f}s vs {base:.3f}s on "
                f"{newest['host']} — >{REGRESSION_TOLERANCE:.0%} of "
                f"baseline ({newest['git_sha'][:10]})")
        else:
            lines.append(
                f"ok   {kind}: wall {wall:.3f}s vs {base:.3f}s baseline "
                f"on {newest['host']}")

    # Rule 3: telemetry-on overhead band for sweep benches.
    sweeps = [e for e in entries if e["kind"] == "bench_sweep"]
    if sweeps:
        overhead = sweeps[-1]["data"].get("overhead_pct")
        if isinstance(overhead, (int, float)):
            if overhead > OVERHEAD_FAIL_PCT:
                ok = False
                lines.append(f"FAIL bench_sweep: telemetry overhead "
                             f"{overhead:.1f}% > {OVERHEAD_FAIL_PCT:.0f}%")
            else:
                lines.append(f"ok   bench_sweep: telemetry overhead "
                             f"{overhead:.1f}% (band "
                             f"{OVERHEAD_FAIL_PCT:.0f}%)")

    # Rule 4: serve warm-path latency — the microsecond fast path is a
    # measured guarantee; gate its p50 against the same-host baseline.
    def _warm_p50(entry):
        warm = entry.get("data", {}).get("warm", {})
        p50 = warm.get("p50_ms") if isinstance(warm, dict) else None
        return float(p50) if isinstance(p50, (int, float)) else None

    serves = [e for e in entries if e["kind"] == "bench_serve"]
    if serves:
        newest = serves[-1]
        p50 = _warm_p50(newest)
        prior = [e for e in serves[:-1]
                 if e["host"] == newest["host"]
                 and _warm_p50(e) is not None]
        if p50 is None or not prior:
            lines.append(f"ok   bench_serve: no same-host warm-hit "
                         f"baseline to gate against "
                         f"({len(serves)} entries)")
        else:
            base = _warm_p50(prior[-1])
            if p50 > WARM_HIT_TOLERANCE * base:
                ok = False
                lines.append(
                    f"FAIL bench_serve: warm-hit p50 {p50:.3f}ms vs "
                    f"{base:.3f}ms on {newest['host']} — "
                    f">{WARM_HIT_TOLERANCE:.0%} of baseline "
                    f"({newest['git_sha'][:10]})")
            else:
                lines.append(
                    f"ok   bench_serve: warm-hit p50 {p50:.3f}ms vs "
                    f"{base:.3f}ms baseline on {newest['host']}")
    return ok, lines


def show(ledger_path=None) -> str:
    rows = []
    for e in read(ledger_path):
        wall = _wall_seconds(e)
        wall_txt = f"{wall:8.3f}s" if wall is not None else "       --"
        rows.append(f"{e['recorded_at']}  {e['kind']:<11} {wall_txt}  "
                    f"{e['git_sha'][:10]}  {e['host']}  ({e['source']})")
    return "\n".join(rows) if rows else "(empty ledger)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ledger", default=None, metavar="PATH",
                    help="ledger file (default: benchmarks/LEDGER.jsonl)")
    ap.add_argument("--check", action="store_true",
                    help="apply the gate rules; exit 1 on failure")
    ap.add_argument("--show", action="store_true",
                    help="render the trajectory")
    args = ap.parse_args(argv)
    if args.check:
        ok, lines = check(args.ledger)
        print("\n".join(lines))
        return 0 if ok else 1
    print(show(args.ledger))
    return 0


if __name__ == "__main__":
    sys.exit(main())
