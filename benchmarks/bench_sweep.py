"""Time the sweep engine with telemetry on vs off; emit BENCH_sweep.json.

Standalone (``python benchmarks/bench_sweep.py``): runs the figure-1
stream sweep through a serial engine in ``PAIRS`` alternating pairs of
arms — telemetry off, and telemetry on (event log to a scratch
directory) — the off arm first in even pairs and second in odd ones.
It records the median wall seconds of each arm and the telemetry
overhead as the median of the per-pair overhead percentages (each pair
is listed too); the acceptance band is ≤3% on this sweep.  One pair of
5-8 s sweeps swung from -27% to +47% on unchanged code on a shared
2-vCPU VM, so a single pair cannot resolve that band.  Every arm's
results are asserted equal before any number is written.  A cache-warm
replay of the same cells records the hit rate and warm wall time (the
per-sweep cache aggregate the ledger tracks).

Every run appends a ``bench_sweep`` entry to ``benchmarks/LEDGER.jsonl``
(see :mod:`ledger`), which CI's ledger-check step gates.

``--quick`` shrinks the sweep to two streams at a reduced horizon for
CI-speed smoke use; quick runs are written/appended with
``"quick": true`` so trajectory comparisons stay like-for-like.
"""

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))

import ledger                                             # noqa: E402
from repro.core.streams import fig1_sweep                 # noqa: E402
from repro.sweep import ResultCache, SweepEngine          # noqa: E402
from repro.telemetry import TelemetryBus, read_events     # noqa: E402

OUT = pathlib.Path(__file__).parent / "BENCH_sweep.json"

QUICK_STREAMS = ("iadd", "fadd")
QUICK_HORIZON = 40_000

#: Alternating off/on pairs behind the reported overhead.
PAIRS = 5


def _timed(fn):
    t0 = time.perf_counter()        # check: allow(wall-clock)
    out = fn()
    return time.perf_counter() - t0, out  # check: allow(wall-clock)


def run_bench(quick: bool = False, log_dir=None) -> dict:
    kwargs = ({"streams": QUICK_STREAMS, "horizon_ticks": QUICK_HORIZON}
              if quick else {})

    def sweep(engine):
        return fig1_sweep(engine=engine, **kwargs)

    scratch = pathlib.Path(log_dir if log_dir is not None
                           else tempfile.mkdtemp(prefix="bench-sweep-"))

    def arm_off():
        return _timed(lambda: sweep(SweepEngine(check=False)))

    def arm_on(i):
        log = scratch / f"bench_sweep-{i}.jsonl"
        bus = TelemetryBus(str(log))
        out = _timed(lambda: sweep(SweepEngine(check=False, telemetry=bus)))
        bus.close()
        return out + (log,)

    secs_off, secs_on, overheads = [], [], []
    baseline = first_log = None
    for i in range(PAIRS):
        if i % 2 == 0:
            sec_off, r_off = arm_off()
            sec_on, r_on, log = arm_on(i)
        else:
            sec_on, r_on, log = arm_on(i)
            sec_off, r_off = arm_off()
        if baseline is None:
            baseline, first_log = r_off, log
        if r_off != baseline or r_on != baseline:
            raise AssertionError("telemetry changed results; refusing to "
                                 "record timings for inequivalent work")
        secs_off.append(sec_off)
        secs_on.append(sec_on)
        overheads.append(100.0 * (sec_on - sec_off) / sec_off)
    events = list(read_events(str(first_log)))

    # Warm replay: cold populate then 100%-hit rerun, both telemetry-off
    # (the cache aggregate, not another telemetry measurement).  Checks
    # stay on: only checked results are cached, so an unchecked
    # populate would leave the replay with 0% hits.
    cache_dir = scratch / "cache"
    _timed(lambda: sweep(SweepEngine(cache=ResultCache(cache_dir))))
    warm_eng = SweepEngine(cache=ResultCache(cache_dir))
    sec_warm, _ = _timed(lambda: sweep(warm_eng))

    return {
        "bench": "sweep",
        "quick": quick,
        "cells": len(baseline),
        "pairs": PAIRS,
        "seconds_off": round(statistics.median(secs_off), 3),
        "seconds_on": round(statistics.median(secs_on), 3),
        "overhead_pct": round(statistics.median(overheads), 2),
        "overhead_pct_pairs": [round(o, 2) for o in overheads],
        "telemetry_events": len(events),
        "warm_replay": {
            "seconds": round(sec_warm, 3),
            "cache_hits": warm_eng.stats.hits,
            "cache_misses": warm_eng.stats.misses,
            "hit_rate": warm_eng.stats.hit_rate,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="two streams at a reduced horizon (CI smoke)")
    ap.add_argument("--max-overhead", type=float, default=None,
                    metavar="PCT",
                    help="exit 1 if telemetry overhead exceeds PCT "
                    "(the acceptance band is 3)")
    ap.add_argument("--no-ledger", action="store_true",
                    help="do not append this run to LEDGER.jsonl")
    args = ap.parse_args(argv)

    report = run_bench(quick=args.quick)
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    if not args.no_ledger:
        ledger.append("bench_sweep", report)
    if (args.max_overhead is not None
            and report["overhead_pct"] > args.max_overhead):
        print(f"overhead {report['overhead_pct']}% exceeds "
              f"--max-overhead {args.max_overhead}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
