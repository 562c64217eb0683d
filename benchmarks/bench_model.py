"""Time the static bound analyzer; emit BENCH_model.json.

Standalone (``python benchmarks/bench_model.py``): runs the full
``repro model`` surface — every default stream target's bound, the
33-cell fig.-1 grid (solo + dual) and all 117 fig.-2 pair envelopes —
and writes wall-clock timings next to this file.  The analyzer is the
hot path of every sweep's post-run oracle and of ``repro check``, so
its cost should stay a rounding error against one simulated cell.

Bounds are memoized per process, so each section is timed twice: once
on an empty memo (``seconds``, what a fresh process pays, and the
number ``total_seconds`` sums for the ledger gate) and once more as a
repeat pass on the memo that first pass filled (``repeat_seconds``).
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))

from repro.check.targets import stream_targets                    # noqa: E402
from repro.isa.streams import ILP                                 # noqa: E402
from repro.model import MODEL_STREAMS, pair_bounds, stream_bounds  # noqa: E402
from repro.model.bounds import clear_memo                         # noqa: E402

OUT = pathlib.Path(__file__).parent / "BENCH_model.json"


def _timed(fn):
    clear_memo()
    t0 = time.perf_counter()
    n = fn()
    t1 = time.perf_counter()
    fn()
    t2 = time.perf_counter()
    return {"items": n, "seconds": round(t1 - t0, 4),
            "repeat_seconds": round(t2 - t1, 4)}


def bench_default_targets() -> int:
    n = 0
    for target in stream_targets():
        stream_bounds(target.spec)
        n += 1
    return n


def bench_fig1_grid() -> int:
    n = 0
    for name in MODEL_STREAMS:
        for ilp in ILP:
            stream_bounds(name, ilp=ilp)
            stream_bounds(name, ilp=ilp, sibling=name)
            n += 1
    return n


def bench_fig2_pairs() -> int:
    n = 0
    for i, a in enumerate(MODEL_STREAMS):
        for b in MODEL_STREAMS[i:]:
            for ilp in ILP:
                pair_bounds(a, b, ilp=ilp)
                n += 1
    return n


def main() -> int:
    report = {
        "bench": "model",
        "default_stream_targets": _timed(bench_default_targets),
        "fig1_grid_solo_plus_dual": _timed(bench_fig1_grid),
        "fig2_pair_envelopes": _timed(bench_fig2_pairs),
    }
    sections = [v for v in report.values() if isinstance(v, dict)]
    report["total_seconds"] = round(sum(v["seconds"] for v in sections), 4)
    report["repeat_total_seconds"] = round(
        sum(v["repeat_seconds"] for v in sections), 4)
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    import ledger

    ledger.append("bench_model", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
