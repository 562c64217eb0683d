"""Time the SMT core's steady-state fast-forward; emit BENCH_core.json.

Standalone (``python benchmarks/bench_core.py``): runs the figure-1
stream sweep, a figure-2 co-execution subset, the memory-bound pair
section and the tiled app workloads (mm/lu/cg/bt, SERIAL) twice —
fast-forward off (no jumps; every tick stepped but the quiet ones the
core's exact time advance crosses) and on — and records wall
seconds, cells/sec, simulated ticks/sec and the speedup next to this
file.  Both arms'
results are asserted equal before any number is written (the
fast-forward's exactness contract), so the timings always describe
equivalent work.  Sweeps run through a serial engine with preflight,
oracle and cache off, so the A/B times measure the simulator itself.

A second section (``pairs_certified``) A/Bs pair-certificate-guided
joint capture (:mod:`repro.check.compose`) against dynamic
super-period detection for dual-stream cells, with the fast-forward on
in both arms, again at asserted-equal results.  Tiled apps have no
such A/B: they capture only where their recurrence certificate
(:mod:`repro.check.recurrence`) says to, so there is no dynamic arm.

``--layer NAME`` names the layer a change moved (for example
``"stepping: time advance"``); a full run stores it as the report's
``layer``, so the ledger row says what the timing is evidence for.

``--smoke`` reruns only the small ``quick`` section and fails (exit 1)
if its speedup regressed more than 25% against the committed
BENCH_core.json — the CI perf gate.  ``REPRO_BENCH_FULL=1`` widens the
figure-2 subset to the paper's full fp x fp and int x int matrices.
"""

import argparse
import dataclasses
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "src"))

from _util import full_sweep                                       # noqa: E402
from repro.core.apps import Variant, run_app_experiment            # noqa: E402
from repro.core.coexec import PAIR_HORIZON_TICKS, run_pair_cpis    # noqa: E402
from repro.core.streams import fig1_sweep, measure_stream_cpi      # noqa: E402
from repro.cpu.fastpath import set_default_enabled                 # noqa: E402
from repro.isa.streams import ILP                                  # noqa: E402
from repro.sweep.engine import SweepEngine                         # noqa: E402
from repro.sweep.keys import FASTPATH_SCHEMA_VERSION               # noqa: E402

OUT = pathlib.Path(__file__).parent / "BENCH_core.json"

#: The CI smoke cells: one arithmetic and one mixed stream, solo and
#: dual.  Small enough for every CI run, fast-forward-friendly enough
#: that a broken detector shows up as an order-of-magnitude slowdown.
QUICK_CELLS = (("iadd", 1), ("iadd", 2), ("fadd-mul", 1), ("fadd-mul", 2))

#: Default figure-2 subset: the arithmetic and divide pairs whose joint
#: dynamics lock into a super-period the detector can prove (the full
#: matrices run under REPRO_BENCH_FULL=1).  Memory pairs are timed
#: separately in ``fig2_mem``: their streams only recur across a whole
#: region pass, which exceeds the co-execution horizon, so their
#: achievable speedup is bounded by wrap/relearn physics, not by the
#: detector (EXPERIMENTS.md, "recurrence-horizon limits").
PAIR_SUBSET = (("fadd", "fmul"), ("fmul", "fmul"), ("iadd", "imul"),
               ("iadd", "iadd"), ("idiv", "fdiv"))

#: Memory-bound pairs, reported transparently next to the headline
#: subset.
MEM_PAIR_SUBSET = (("fload", "iload"), ("fstore", "istore"),
                   ("fadd-mul", "iload"))

#: Pair-certificate A/B subset: the parity case (fload+iload — joint
#: cycle as visible dynamically as statically), the wrap case
#: (fstore+istore — residue anchors survive where dynamic signatures
#: relearn), the divider orbit (fdiv+fdiv — the joint period is 6
#: positions but thousands of ticks, the dynamic detector's worst
#: search), and the honest fallback (fadd-mul+iload — genuinely
#: aperiodic jointly, the certificate must strike out and stand down).
PAIR_CERT_SUBSET = (("fload", "iload"), ("fstore", "istore"),
                    ("fdiv", "fdiv"), ("fadd-mul", "iload"))

#: Tiled app workloads for the tile-level (PhaseMarker) fast-forward.
#: cg uses a deeper solve than the figure default: its whole-iteration
#: recurrence is the detector's best case, and more iterations amortize
#: the two cold iterations detection must observe.
APP_CELLS = (
    ("mm", {"n": 64}),
    ("lu", {"n": 32}),
    ("cg", {"n": 224, "nnz_per_row": 40, "iterations": 24}),
    ("bt", {"grid": 8}),
)

_FIG2A = ("fadd", "fmul", "fdiv", "fload", "fstore")
_FIG2B = ("iadd", "imul", "idiv", "iload", "istore")


def _pairs():
    if not full_sweep():
        return PAIR_SUBSET
    full = []
    for fam in (_FIG2A, _FIG2B):
        for i, a in enumerate(fam):
            full.extend((a, b) for b in fam[i:])
    return tuple(full)


def _ab(run):
    """Time one section fast-forward off then on; check equivalence.

    ``run(enabled)`` returns ``(simulated_ticks, results)``; the results
    of both arms must compare equal or the benchmark aborts — a timing
    for inequivalent work would be meaningless.
    """
    t0 = time.perf_counter()        # check: allow(wall-clock)
    ticks, r_off = run(False)
    sec_off = time.perf_counter() - t0  # check: allow(wall-clock)
    t0 = time.perf_counter()        # check: allow(wall-clock)
    _, r_on = run(True)
    sec_on = time.perf_counter() - t0   # check: allow(wall-clock)
    if r_off != r_on:
        raise AssertionError("fast-forward changed results; refusing "
                             "to record timings for inequivalent work")
    cells = len(r_off)
    return {
        "cells": cells,
        "sim_ticks": ticks,
        "seconds_off": round(sec_off, 3),
        "seconds_on": round(sec_on, 3),
        "cells_per_sec_off": round(cells / sec_off, 2),
        "cells_per_sec_on": round(cells / sec_on, 2),
        "ticks_per_sec_off": round(ticks / sec_off),
        "ticks_per_sec_on": round(ticks / sec_on),
        "speedup": round(sec_off / sec_on, 2),
    }


def _quick(enabled):
    results = [measure_stream_cpi(name, ILP.MAX, threads,
                                  fastpath=enabled)
               for name, threads in QUICK_CELLS]
    return int(sum(r.cycles * 2 for r in results)), results


def _fig1(enabled):
    set_default_enabled(enabled)
    try:
        results = fig1_sweep(
            engine=SweepEngine(check=False))
    finally:
        set_default_enabled(True)
    return int(sum(r.cycles * 2 for r in results)), results


def _fig2(enabled):
    pairs = _pairs()
    set_default_enabled(enabled)
    try:
        results = [run_pair_cpis(a, b, ilp=ILP.MAX) for a, b in pairs]
    finally:
        set_default_enabled(True)
    return len(pairs) * PAIR_HORIZON_TICKS, results


def _fig2_mem(enabled):
    set_default_enabled(enabled)
    try:
        results = [run_pair_cpis(a, b, ilp=ILP.MAX)
                   for a, b in MEM_PAIR_SUBSET]
    finally:
        set_default_enabled(True)
    return len(MEM_PAIR_SUBSET) * PAIR_HORIZON_TICKS, results


def _run_app(app, size, enabled):
    r = run_app_experiment(app, Variant.SERIAL, size, fastpath=enabled)
    # Wall time is the one field that legitimately differs between the
    # arms; zero it so _ab's equality check covers everything else.
    return int(r.cycles * 2), [dataclasses.replace(r, wall_time_s=0.0)]


def _apps():
    """Per-app A/B cells (apps differ too much to share one clock)."""
    per_app = {}
    for app, size in APP_CELLS:
        cell = _ab(lambda enabled, app=app, size=size:
                   _run_app(app, size, enabled))
        per_app[app] = {k: cell[k] for k in
                        ("sim_ticks", "seconds_off", "seconds_on",
                         "speedup")}
    sec_off = sum(c["seconds_off"] for c in per_app.values())
    sec_on = sum(c["seconds_on"] for c in per_app.values())
    return {
        "seconds_off": round(sec_off, 3),
        "seconds_on": round(sec_on, 3),
        "speedup": round(sec_off / sec_on, 2),
        "per_app": per_app,
    }


def _run_pair_on(a, b, certified):
    """One fastpath-on pair run, with or without the pair certificate.

    Suppressing ``attach_pair_certificate`` leaves the runtime on pure
    dynamic super-period detection — the exact arm the joint-lattice
    capture replaced — so the pair times what static composition buys
    at equal results.
    """
    from repro.cpu import fastpath as _fastpath

    orig = _fastpath.attach_pair_certificate
    if not certified:
        _fastpath.attach_pair_certificate = lambda cert: None
    _fastpath.reset_stats()
    try:
        r = run_pair_cpis(a, b, ilp=ILP.MAX, fastpath=True)
    finally:
        _fastpath.attach_pair_certificate = orig
    st = _fastpath.stats()
    return r, {"coverage": round(st.coverage, 4), "jumps": st.jumps,
               "pair_cert_runs": st.pair_cert_runs,
               "pair_cert_jumps": st.pair_cert_jumps,
               "stand_downs": st.to_dict()["stand_downs"]}


def _pairs_certified():
    """Pair-certificate-guided vs dynamic detection (fastpath on both).

    ``speedup`` is dynamic-arm seconds over certified-arm seconds: what
    the composed joint lattice buys on top of the dynamic super-period
    detector, at byte-identical results.
    """
    per_pair = {}
    for a, b in PAIR_CERT_SUBSET:
        t0 = time.perf_counter()    # check: allow(wall-clock)
        r_dyn, c_dyn = _run_pair_on(a, b, certified=False)
        sec_dyn = time.perf_counter() - t0  # check: allow(wall-clock)
        t0 = time.perf_counter()    # check: allow(wall-clock)
        r_cert, c_cert = _run_pair_on(a, b, certified=True)
        sec_cert = time.perf_counter() - t0  # check: allow(wall-clock)
        if r_dyn != r_cert:
            raise AssertionError(
                "pair certification changed results; refusing to "
                "record timings for inequivalent work")
        per_pair[f"{a}+{b}"] = {
            "seconds_dynamic": round(sec_dyn, 3),
            "seconds_certified": round(sec_cert, 3),
            "speedup": round(sec_dyn / sec_cert, 2),
            "coverage_dynamic": c_dyn["coverage"],
            "coverage_certified": c_cert["coverage"],
            "jumps_dynamic": c_dyn["jumps"],
            "pair_cert_runs": c_cert["pair_cert_runs"],
            "pair_cert_jumps": c_cert["pair_cert_jumps"],
            "stand_downs_certified": c_cert["stand_downs"],
        }
    sec_dyn = sum(c["seconds_dynamic"] for c in per_pair.values())
    sec_cert = sum(c["seconds_certified"] for c in per_pair.values())
    return {
        "seconds_dynamic": round(sec_dyn, 3),
        "seconds_certified": round(sec_cert, 3),
        "speedup": round(sec_dyn / sec_cert, 2),
        "per_pair": per_pair,
    }


def smoke() -> int:
    """CI perf gate: quick-section speedup within 25% of committed."""
    committed = json.loads(OUT.read_text())["quick"]["speedup"]
    fresh = _ab(_quick)
    floor = 0.75 * committed
    verdict = "ok" if fresh["speedup"] >= floor else "REGRESSION"
    print(json.dumps({
        "bench": "core-smoke",
        "quick": fresh,
        "committed_speedup": committed,
        "floor": round(floor, 2),
        "verdict": verdict,
    }, indent=2))
    return 0 if verdict == "ok" else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="rerun only the quick section and fail on a "
                         ">25%% speedup regression vs BENCH_core.json")
    ap.add_argument("--layer", metavar="NAME",
                    help="the layer this run's change moved, stored in "
                         "the report and its ledger row")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    report = {
        "bench": "core",
        **({"layer": args.layer} if args.layer else {}),
        "fastpath_schema_version": FASTPATH_SCHEMA_VERSION,
        "quick": _ab(_quick),
        "fig1_sweep": _ab(_fig1),
        "fig2_pairs": _ab(_fig2),
        "fig2_mem": _ab(_fig2_mem),
        "apps": _apps(),
        "pairs_certified": _pairs_certified(),
    }
    # ``total_seconds`` is the ledger's trajectory metric and must keep
    # measuring the same thing across entries: the off/on A/B sections.
    # The certified-vs-dynamic section reports its own seconds inline.
    total = sum(v.get("seconds_off", 0.0) + v.get("seconds_on", 0.0)
                for v in report.values() if isinstance(v, dict))
    report["total_seconds"] = round(total, 3)
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    # Full runs also extend the perf-regression trajectory (the smoke
    # path above gates against the committed snapshot instead).
    import ledger

    ledger.append("bench_core", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
