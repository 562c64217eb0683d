#!/usr/bin/env python3
"""The repository benchmark: figure regeneration through the CLI and
request latency through the ``repro serve`` daemon.

::

    python3 perfbench/run.py --workload figs-ff --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --record-pins     # on a commit whose outputs are right

Workloads (the reasons are in ``BENCHMARK.json``, the layer map in
``layers.json``):

* ``figs-ff`` — ``fig1 --streams fadd,fmul,fadd-mul,iadd``, ``fig2
  --panel c --ilp max`` and ``fig2 --panel c --ilp med`` through
  ``repro.cli.main``, once on an empty cache, then in warm rounds;
* ``step-bound`` — ``app lu --size 32`` the same way;
* ``serve-mixed`` — a ``repro serve --jobs 1`` subprocess driven over
  HTTP by two keep-alive connections in lock-step rounds.

Every op keeps the program's defaults (preflight, oracle, fast-forward
and telemetry on); the cache and the telemetry spool live in a per-run
directory under ``.perfbench/`` that is removed at the end.

Host speed: on a shared two-vCPU Xeon VM the same code ran up to 50%
slower for minutes at a time.  So every end-to-end *time* is taken
against a fixed pure-Python reference loop timed alongside the work,
and reported as it would read on a host where 100k turns of that loop
take ``REF_LOOP_MS``: ``raw * REF_LOOP_MS / loop time``.  In-process
ops and process spawns are sampled by :class:`HostSampler` every
``SAMPLE_PERIOD_S``; serve requests by loops timed between requests
(prefill) or blocks of rounds, while no request is in flight.  The raw
wall times are printed beside the reported ones.  A commit that slows
the program moves the reported number; a host that slows the loop and
the program alike does not.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run
(``tracing.py``), whose warm rounds alternate traced and untraced so
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
LAYERS = HERE / "layers.json"
SPEC = ROOT / "BENCHMARK.json"

FIG1_STREAMS = "fadd,fmul,fadd-mul,iadd"
FIGS_FF = [["fig1", "--streams", FIG1_STREAMS],
           ["fig2", "--panel", "c", "--ilp", "max"],
           ["fig2", "--panel", "c", "--ilp", "med"]]
STEP_BOUND = [["app", "lu", "--size", "32"]]

#: Fresh interpreters timed per run for ``setup_s`` (the median is
#: reported).  The daemon's count includes the one the run then uses.
CLI_SETUP_SPAWNS = 7
SERVE_SETUP_SPAWNS = 7

# -- serve-mixed traffic ---------------------------------------------------

#: Arithmetic stream cells that simulate in 7-80 ms and that preflight
#: and the oracle accept at every horizon used below.
COLD_POOL = [(s, ilp, t) for s in ("iadd", "isub", "ilogic", "imul", "fadd",
                                   "fsub", "fmul", "fadd-mul")
             for ilp in ("MED", "MAX") for t in (1, 2)]
#: Disjoint horizon bands keep warm-set, led and coalesced cells apart,
#: so a cell meant to be never-seen really is.
WARM_BAND = (6000, 7000)
LED_BAND = (7000, 10000)
COALESCED_BAND = (10000, 12000)
#: Small cells the prefill adds to the fig1 manifest's 24.
WARM_SET = 16
#: Rounds per second of ``--seconds``: the schedule is a fixed length
#: so that the simulation and coalescing counts repeat exactly for a
#: seed.  Per 1000 rounds: 60 led, 15 coalesced, 10 manifest rounds;
#: at about 190 rounds/s on a two-vCPU Xeon VM the phase lasts about
#: ``--seconds``.
ROUNDS_PER_SECOND = 180
LED_SHARE, COALESCED_SHARE, MANIFEST_SHARE = 0.06, 0.015, 0.01
#: Warm-only rounds run against an untraced daemon in a traced run.
OVERHEAD_ROUNDS = 300

#: Nominal time of 100k turns of the reference loop; see the module
#: docstring.
REF_LOOP_MS = 10.0
#: Serve rounds between two reference-loop timings.
BLOCK_ROUNDS = 16
#: The sampler's loop is 20k turns, about 2 ms, far inside the switch
#: interval the sampler sets, so it runs in one piece while an
#: in-process op waits for the interpreter.
SAMPLE_PERIOD_S = 0.1
SAMPLE_ITERATIONS = 20_000
SAMPLE_SWITCH_INTERVAL_S = 0.05


class Run:
    """One benchmark run: its inputs, working directory and accounting."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.dir = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.loops: List[float] = []

    def ref_loop(self, iterations: int = 100_000) -> float:
        """Time the reference loop; returns ms per 100k turns.  Every
        timing is kept for ``host.calib_ms``."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc = (acc + i * i) % 1_000_003
        ms = 1000.0 * (time.perf_counter() - t0) * 100_000 / iterations
        self.loops.append(ms)
        return ms

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def path(self, *parts: str) -> str:
        """A file path in the run directory (its parent is created)."""
        p = self.dir.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return str(p)

    def mkdir(self, *parts: str) -> str:
        p = self.dir.joinpath(*parts)
        p.mkdir(parents=True, exist_ok=True)
        return str(p)

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = self.mkdir("tmp")
        return env


# -- measurement helpers ---------------------------------------------------

def scale(before_ms: float, after_ms: float) -> float:
    """Host-speed factor for work timed between two reference loops."""
    return REF_LOOP_MS / ((before_ms + after_ms) / 2.0)


class HostSampler:
    """Times the reference loop every ``SAMPLE_PERIOD_S`` on a thread
    of its own, also while an in-process op runs."""

    def __init__(self, run: "Run"):
        self.run = run
        self.loops: List[Tuple[float, float, float]] = []  # t0, t1, ms
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSampler":
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.perf_counter()
            ms = self.run.ref_loop(SAMPLE_ITERATIONS)
            self.loops.append((t0, time.perf_counter(), ms))

    def normalize(self, t0: float, t1: float, paused: bool = True
                  ) -> float:
        """Host-normalized length of ``[t0, t1]``, scaled by the median
        loop time around it.  ``paused``: the timed work waited while
        the loop ran (it shares the interpreter or the CPU), so the
        loop's time is taken out."""
        while len(self.loops) < 2:
            time.sleep(SAMPLE_PERIOD_S)
        loops = list(self.loops)
        near = [ms for a, _b, ms in loops
                if t0 - SAMPLE_PERIOD_S <= a <= t1 + SAMPLE_PERIOD_S]
        if not near:
            near = [min(loops, key=lambda s: abs(s[0] - t0))[2]]
        pause = (sum(b - a for a, b, _ms in loops if t0 <= a and b <= t1)
                 if paused else 0.0)
        return (t1 - t0 - pause) * REF_LOOP_MS / statistics.median(near)


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_note(samples: List[float], p: float) -> str:
    beyond = len(samples) - math.ceil(p / 100.0 * len(samples))
    return f"n={len(samples)}, {beyond} beyond p{p:g}"


def digest(report: Any) -> str:
    """sha256 of a report as the daemon serves it: volatile keys
    stripped, 2-space JSON, trailing newline."""
    from repro.observe.report import strip_volatile

    text = json.dumps(strip_volatile(report), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fp:
                fields = fp.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(proc: subprocess.Popen) -> None:
    """Stop a process started in its own session and everything it
    started, and wait until all of them have ended."""
    try:
        proc.send_signal(signal.SIGINT)
        proc.wait(30)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30
    while group_alive(proc.pid):
        if time.monotonic() > deadline:
            raise RuntimeError(f"process group {proc.pid} did not exit")
        time.sleep(0.02)


def load_pins() -> dict:
    with open(PINS) as fp:
        return json.load(fp)


# -- the CLI workloads -----------------------------------------------------

def time_cli_setup(run: Run, sampler: HostSampler) -> float:
    code = ("import sys; import repro.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    samples = []
    for _ in range(CLI_SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=run.env(),
                                cwd=run.dir, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(60) != 0 or line.strip() != b"ready":
            raise RuntimeError("a fresh interpreter could not import "
                               "repro.cli")
        samples.append(sampler.normalize(t0, t1))
    return statistics.median(samples)


def cli_op(run: Run, argv: List[str], pins: Optional[dict]
           ) -> Tuple[float, float, dict]:
    """One ``repro.cli.main`` call; returns (start, end, report).  A
    non-zero return, an exception or a report that differs from its
    pinned digest is a failed op."""
    import repro.cli as cli

    label = " ".join(argv)
    report_path = run.path("reports", "op.json")
    full = argv + ["--cache-dir", run.path("cache"),
                   "--telemetry-dir", run.path("telemetry"),
                   "--report", report_path]
    run.attempted += 1
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = cli.main(full)
    except Exception as e:  # noqa: BLE001 - counted as a failed op
        rc = f"{type(e).__name__}: {e}"
    t1 = time.perf_counter()
    if rc != 0:
        run.fail(f"{label}: returned {rc!r}: {sink.getvalue()[-300:]}")
        return t0, t1, {}
    with open(report_path) as fp:
        report = json.load(fp)
    if pins is not None:
        got, want = digest(report), pins["reports"].get(label)
        if got != want:
            run.fail(f"{label}: report digest {got[:12]} != pinned "
                     f"{str(want)[:12]}")
    return t0, t1, report


def cold_counts(reports: List[dict]) -> Dict[str, int]:
    """The counts that must repeat exactly, from the cold reports'
    sweep sections."""
    out = {"misses": 0, "jumps": 0, "ticks_skipped": 0, "ticks_total": 0}
    for r in reports:
        sweep = r.get("sweep", {})
        fp = sweep.get("fastpath", {})
        out["misses"] += sweep.get("cache_misses", 0)
        for k in ("jumps", "ticks_skipped", "ticks_total"):
            out[k] += fp.get(k, 0)
    return out


def run_cli(run: Run, targets: List[List[str]], pins: dict) -> None:
    import repro.cli  # noqa: F401 - set-up is not part of any op

    # One CPU for the ops, the set-up spawns and the sampler, so the
    # reference loop times the CPU the work runs on (unpinned, the
    # normalized cold pass varied about twice as much).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with HostSampler(run) as sampler:
        cli_phases(run, targets, pins, sampler)


def cli_phases(run: Run, targets: List[List[str]], pins: dict,
               sampler: HostSampler) -> None:
    tracer = None
    if run.trace:
        import tracing

        tracer = tracing.Tracer()
        cli_targets = tracing.cli_targets()
    else:
        run.metrics["setup_s"] = time_cli_setup(run, sampler)
    raw = 0.0
    ops = 0

    def timed(argv: List[str]) -> Tuple[float, dict]:
        """One op: (host-normalized seconds, report)."""
        nonlocal raw, ops
        if tracer is not None:
            tracer.op += 1
        t0, t1, report = cli_op(run, argv, pins)
        raw += t1 - t0
        ops += 1
        return sampler.normalize(t0, t1), report

    order = list(targets)
    run.rng.shuffle(order)
    if tracer is not None:
        tracer.install(cli_targets)
    results = [timed(argv) for argv in order]
    cold, raw_cold = sum(r[0] for r in results), raw
    counts = cold_counts([r[1] for r in results])
    run.notes["exact counts"] = json.dumps(counts, sort_keys=True)
    want = pins["counts"][run.workload]
    if counts != want:
        run.problems.append(f"exact counts {counts} != pinned {want}")

    def warm_round() -> float:
        run.rng.shuffle(order)
        return sum(timed(argv)[0] for argv in order)

    rounds: List[float] = []
    if tracer is not None:
        # Alternate traced and untraced rounds: the difference of their
        # medians is the tracing overhead.
        traced_rounds: List[float] = []
        for _ in range(run.seconds):
            tracer.install(cli_targets)
            traced_rounds.append(warm_round())
            tracer.uninstall()
            rounds.append(warm_round())
        cli_layer_metrics(run, tracer, counts)
        overhead(run, statistics.median(traced_rounds) * 1000.0,
                 statistics.median(rounds) * 1000.0)
        return
    raw, ops = 0.0, 0
    deadline = time.perf_counter() + run.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(warm_round())
    run.metrics["cold_s"] = cold
    run.metrics["warm_p50_ms"] = statistics.median(rounds) * 1000.0
    run.metrics["req_per_s"] = ops / sum(rounds)
    run.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    run.notes["raw wall"] = (
        f"cold {raw_cold:.3f} s, warm rounds {raw / len(rounds):.4f} s "
        f"on average")
    run.notes["warm rounds"] = (
        f"{len(rounds)} rounds of {len(targets)} op(s); "
        f"p90 {percentile(rounds, 90) * 1000.0:.1f} ms "
        f"({tail_note(rounds, 90)})")


def overhead(run: Run, traced_ms: float, untraced_ms: float) -> None:
    run.metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    run.metrics["trace.overhead_pct"] = (
        100.0 * (traced_ms - untraced_ms) / untraced_ms)
    run.notes["tracing overhead"] = (
        f"warm p50 {traced_ms:.3f} ms traced vs {untraced_ms:.3f} ms "
        f"untraced")


# -- per-layer metrics -----------------------------------------------------

def _ms(agg: dict, name: str, key: str = "total_s") -> float:
    return 1000.0 * agg.get(name, {}).get(key, 0.0)


def _calls(agg: dict, name: str) -> int:
    return agg.get(name, {}).get("calls", 0)


def _attr_sum(agg: dict, name: str, key: str) -> float:
    return sum(a.get(key, 0) for a in agg.get(name, {}).get("attrs", []))


def fastpath_metrics(m: Dict[str, float], fp: dict) -> None:
    m["fastpath.jumps"] = fp.get("jumps", 0)
    m["fastpath.ticks_skipped"] = fp.get("ticks_skipped", 0)
    total = fp.get("ticks_total", 0)
    m["fastpath.coverage"] = (fp.get("ticks_skipped", 0) / total
                              if total else 0.0)
    m["fastpath.captures"] = fp.get("captures", 0)
    m["fastpath.verify_failures"] = fp.get("verify_failures", 0)
    m["fastpath.stand_downs"] = sum(fp.get("stand_downs", {}).values())


def common_layer_metrics(m: Dict[str, float], agg: dict) -> None:
    """Layers both front ends reach: cells, cache, check, model,
    observe, telemetry."""
    m["cells.key_ms"] = _ms(agg, "cells.key")
    m["cells.key_calls"] = _calls(agg, "cells.key")
    gets = _calls(agg, "cache.get")
    m["cache.get_ms"] = _ms(agg, "cache.get")
    m["cache.get_calls"] = gets
    m["cache.put_ms"] = _ms(agg, "cache.put")
    m["cache.put_calls"] = _calls(agg, "cache.put")
    m["cache.hit_ratio"] = (_attr_sum(agg, "cache.get", "hit") / gets
                            if gets else 0.0)
    m["check.preflight_ms"] = _ms(agg, "check.preflight")
    m["check.preflight_cells"] = _attr_sum(agg, "check.preflight", "cells")
    m["check.races_ms"] = _ms(agg, "check.races")
    m["check.certify_ms"] = _ms(agg, "check.certify")
    m["check.certify_scans"] = _attr_sum(agg, "check.certify", "scans")
    m["check.certify_memo_hits"] = _attr_sum(agg, "check.certify",
                                             "memo_hits")
    m["model.oracle_ms"] = _ms(agg, "model.oracle")
    m["model.oracle_cells"] = _attr_sum(agg, "model.oracle", "cells")
    m["model.section_ms"] = _ms(agg, "model.section")
    m["observe.report_ms"] = _ms(agg, "observe.report")
    m["telemetry.emit_ms"] = _ms(agg, "telemetry.emit")


def cli_layer_metrics(run: Run, tracer: Any, counts: dict) -> None:
    import tracing
    from repro.cpu.fastpath import merge_stats

    agg = tracing.summarize(tracer.spans)
    m = run.metrics
    m["cli.self_ms"] = _ms(agg, "cli", "self_s")
    m["engine.self_ms"] = _ms(agg, "engine", "self_s")
    last: Dict[int, dict] = {}
    for a in agg.get("engine", {}).get("attrs", []):
        last[a["engine"]] = a
    m["engine.hits"] = sum(a["hits"] for a in last.values())
    m["engine.misses"] = sum(a["misses"] for a in last.values())
    common_layer_metrics(m, agg)
    m["workloads.build_ms"] = _ms(agg, "workloads.build")
    m["trace.compile_ms"] = _ms(agg, "trace.compile")
    fp: dict = {}
    for a in agg.get("engine.execute", {}).get("attrs", []):
        merge_stats(fp, a["fastpath"])
    run_s = agg.get("sim.run", {}).get("total_s", 0.0)
    ticks = _attr_sum(agg, "sim.run", "ticks")
    stepped = ticks - fp.get("ticks_skipped", 0)
    m["sim.run_ms"] = 1000.0 * run_s
    m["sim.ticks"] = ticks
    m["sim.stepped_ticks"] = stepped
    m["sim.stepped_ticks_per_s"] = stepped / run_s if run_s else 0.0
    m["sim.ticks_per_s"] = ticks / run_s if run_s else 0.0
    fastpath_metrics(m, fp)
    emits = _calls(agg, "telemetry.emit")
    m["telemetry.emits"] = emits
    op_ms = _ms(agg, "cli")
    m["telemetry.share_pct"] = (100.0 * m["telemetry.emit_ms"] / op_ms
                                if op_ms else 0.0)
    if ticks != counts["ticks_total"]:
        run.problems.append(f"traced sim.ticks {ticks} != the sweep's "
                            f"ticks_total {counts['ticks_total']}")


# -- the serve workload ----------------------------------------------------

def cell_spec(stream: str, ilp: str, threads: int, horizon: int) -> dict:
    from repro.sweep.cells import stream_recipe

    return {"kind": "stream-cpi",
            "config": {"stream": stream, "recipe": stream_recipe(stream),
                       "ilp": ilp, "threads": threads,
                       "horizon_ticks": horizon}}


def cell_stream(rng: random.Random, band: Tuple[int, int], n: int) -> list:
    """``n`` never-seen cells: the pool cycled in seeded order, each
    with a distinct seeded horizon from ``band``."""
    horizons = rng.sample(range(*band), n)
    combos: list = []
    while len(combos) < n:
        cycle = list(COLD_POOL)
        rng.shuffle(cycle)
        combos.extend(cycle)
    return [cell_spec(s, ilp, t, h)
            for (s, ilp, t), h in zip(combos, horizons)]


def schedule(run: Run) -> Tuple[List[dict], List[tuple]]:
    """The warm set and the seeded round list.  A round is (kind,
    request for connection 0, request for connection 1); a request is
    (path, cell spec or None, "warm" or "cold").

    The warm set is the fig1 manifest's cells plus a fixed set of
    small cells, so the prefill is the same work for every seed."""
    from repro.core.streams import fig1_cells

    warm = [{"kind": c.kind, "config": c.config}
            for c in fig1_cells(tuple(FIG1_STREAMS.split(",")))]
    warm += cell_stream(random.Random(0), WARM_BAND, WARM_SET)
    n = ROUNDS_PER_SECOND * run.seconds
    n_led = round(n * LED_SHARE)
    n_coal = round(n * COALESCED_SHARE)
    n_man = round(n * MANIFEST_SHARE)
    kinds = (["led"] * n_led + ["coalesced"] * n_coal
             + ["manifest"] * n_man)
    kinds += ["warm"] * (n - len(kinds))
    rng = run.rng
    rng.shuffle(kinds)
    led = iter(cell_stream(rng, LED_BAND, 2 * n_led))
    coal = iter(cell_stream(rng, COALESCED_BAND, n_coal))
    known = list(warm)
    rounds = []
    for kind in kinds:
        if kind == "led":
            a, b = next(led), next(led)
            rounds.append((kind, ("cells", a, "cold"), ("cells", b, "cold")))
            known += [a, b]
        elif kind == "coalesced":
            c = next(coal)
            rounds.append((kind, ("cells", c, "cold"), ("cells", c, "cold")))
            known.append(c)
        elif kind == "manifest":
            rounds.append((kind, ("manifest", None, "warm"),
                           ("cells", rng.choice(known), "warm")))
        else:
            rounds.append((kind, ("cells", rng.choice(known), "warm"),
                           ("cells", rng.choice(known), "warm")))
    return warm, rounds


class Daemon:
    """A ``repro serve --jobs 1`` subprocess in its own session."""

    def __init__(self, run: Run, name: str, spans: Optional[str] = None):
        self.ready = run.path(name, "ready")
        self.telemetry = run.mkdir(name, "telemetry")
        args = ["serve", "--port", "0", "--jobs", "1",
                "--ready-file", self.ready,
                "--cache-dir", run.path("cache"),
                "--telemetry-dir", self.telemetry]
        if spans is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                   spans, "--"] + args
        self.log = open(run.path(name, "daemon.log"), "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=run.env(), cwd=run.dir,
                                     stdout=self.log, stderr=self.log,
                                     start_new_session=True)
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_at = time.perf_counter()

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early "
                                   f"(rc={self.proc.returncode})")
            if os.path.exists(self.ready):
                with open(self.ready) as fp:
                    host, port = fp.read().split()
                return host, int(port)
            time.sleep(0.002)
        raise RuntimeError("daemon did not become ready in 60 s")

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus its pool worker(s)."""
        kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/status") as fp:
                    status = dict(line.split(":", 1) for line in fp
                                  if ":" in line)
            except OSError:
                continue
            pid, ppid = int(entry), int(status["PPid"])
            if self.proc.pid in (pid, ppid) and "VmHWM" in status:
                kb += int(status["VmHWM"].split()[0])
        return kb / 1024.0

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        try:
            stop_group(self.proc)
        finally:
            self.log.close()


class Conn:
    """One keep-alive HTTP connection; returns (status, body, seconds)."""

    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self.http: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes, float]:
        if self.http is None:
            self.http = http.client.HTTPConnection(
                self.daemon.host, self.daemon.port, timeout=60)
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = time.perf_counter()
        try:
            self.http.request(method, path, body=body, headers=headers)
            resp = self.http.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return resp.status, data, time.perf_counter() - t0

    def stats(self) -> dict:
        status, data, _ = self.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats returned {status}")
        return json.loads(data)["counters"]

    def close(self) -> None:
        if self.http is not None:
            self.http.close()
            self.http = None


MANIFEST_PATH = f"/manifest?target=fig1&streams={FIG1_STREAMS}"
MANIFEST_LABEL = f"fig1 --streams {FIG1_STREAMS}"


class Traffic:
    """Issues requests, checks every answer, keeps the samples."""

    def __init__(self, run: Run, pins: dict):
        self.run = run
        self.pins = pins
        self.lock = threading.Lock()
        self.payloads: Dict[str, str] = {}   # cell key -> results JSON
        self.broken = False
        self.reset()

    def reset(self) -> None:
        #: (temperature, host-speed factor index, seconds) per request.
        self.samples: List[Tuple[str, int, float]] = []
        self.overhead_s = 0.0

    def send(self, conn: Conn, req: tuple, block: int = 0
             ) -> Optional[str]:
        """Send one request, check the answer; returns the canonical
        results text (the manifest's digest for /manifest)."""
        what, spec, temperature = req
        run = self.run
        with self.lock:
            run.attempted += 1
        try:
            if what == "manifest":
                status, data, dt = conn.request("GET", MANIFEST_PATH)
            else:
                body = json.dumps({"cells": [spec]}).encode()
                status, data, dt = conn.request("POST", "/cells", body)
        except (OSError, http.client.HTTPException) as e:
            with self.lock:
                self.broken = True
                run.fail(f"{what}: {type(e).__name__}: {e}")
            return None
        if not 200 <= status < 300:
            with self.lock:
                run.fail(f"{what}: HTTP {status}: {data[:200]!r}")
            return None
        if what == "manifest":
            got = hashlib.sha256(data).hexdigest()
            want = self.pins["reports"][MANIFEST_LABEL]
            with self.lock:
                self.samples.append(("manifest", block, dt))
                if got != want:
                    run.fail(f"/manifest digest {got[:12]} != pinned "
                             f"{want[:12]}")
            return got
        answer = json.loads(data)
        text = json.dumps(answer["results"], sort_keys=True)
        key = json.dumps(spec, sort_keys=True)
        with self.lock:
            self.samples.append((temperature, block, dt))
            self.overhead_s += dt - answer["serve"]["wall_s"]
            known = self.payloads.setdefault(key, text)
            if known != text:
                run.fail(f"/cells payload for {key} differs from the "
                         f"one first returned for that cell")
            hits = answer["serve"]["warm_hits"]
            if (temperature == "warm") != (hits == 1):
                run.fail(f"a {temperature} request saw {hits} warm hit(s)")
        return text

    def play(self, daemon: Daemon, rounds: List[tuple]
             ) -> Tuple[float, List[float]]:
        """Both connections walk the rounds in lock-step (closed loop).

        Connection 0 times the reference loop before every block of
        ``BLOCK_ROUNDS`` rounds while connection 1 waits at the
        barrier.  Returns the phase's host-normalized busy time and the
        host-speed factor of each block (indexed by ``samples``)."""
        barrier = threading.Barrier(2)
        answers: List[List[Optional[str]]] = [[None, None]
                                               for _ in rounds]
        loops: List[float] = []
        busy: List[float] = []

        def client(side: int) -> None:
            conn = Conn(daemon)
            t0 = 0.0
            try:
                for i, (kind, *reqs) in enumerate(rounds):
                    if side == 0 and i % BLOCK_ROUNDS == 0:
                        if i:
                            busy.append(time.perf_counter() - t0)
                        loops.append(self.run.ref_loop())
                        t0 = time.perf_counter()
                    barrier.wait(180)
                    if self.broken:
                        break
                    answers[i][side] = self.send(conn, reqs[side],
                                                 i // BLOCK_ROUNDS)
                if side == 0:
                    busy.append(time.perf_counter() - t0)
                    loops.append(self.run.ref_loop())
            except threading.BrokenBarrierError:
                with self.lock:
                    self.broken = True
            finally:
                barrier.abort()
                conn.close()

        threads = [threading.Thread(target=client, args=(s,))
                   for s in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self.broken:
            self.run.fail("the lock-step rounds broke off")
        for (kind, *_), (a, b) in zip(rounds, answers):
            if kind == "coalesced" and a is not None and a != b:
                self.run.fail("the two halves of a coalesced round "
                              "differ")
        factors = [scale(loops[i], loops[i + 1])
                   for i in range(len(loops) - 1)]
        return sum(b * f for b, f in zip(busy, factors)), factors

    def latencies_ms(self, temperature: str, factors: List[float]
                     ) -> List[float]:
        return [1000.0 * dt * factors[block]
                for t, block, dt in self.samples if t == temperature]


def spool_metrics(m: Dict[str, float], telemetry_dir: str) -> None:
    """Worker-side and phase timings from the daemon's telemetry spool."""
    from repro.cpu.fastpath import merge_stats

    phases = {"preflight": 0.0, "oracle": 0.0, "store": 0.0}
    queue = worker = 0.0
    emits = 0
    fp: dict = {}
    for name in sorted(os.listdir(telemetry_dir)):
        with open(os.path.join(telemetry_dir, name)) as f:
            for line in f:
                emits += 1
                ev = json.loads(line)
                if ev["ev"] == "cell-begin":
                    queue += ev["queue_wait_s"]
                elif ev["ev"] == "cell-end" and ev["idx"] >= 0:
                    worker += ev["wall_s"]
                    merge_stats(fp, ev["fastpath"])
                elif ev["ev"] == "phase" and ev["name"] in phases:
                    phases[ev["name"]] += ev["wall_s"]
    m["scheduler.queue_wait_ms"] = 1000.0 * queue
    m["scheduler.worker_ms"] = 1000.0 * worker
    for k, v in phases.items():
        m[f"scheduler.{k}_ms"] = 1000.0 * v
    m["telemetry.emits"] = emits
    m["sim.ticks"] = fp.get("ticks_total", 0)
    m["sim.stepped_ticks"] = (fp.get("ticks_total", 0)
                              - fp.get("ticks_skipped", 0))
    fastpath_metrics(m, fp)


def run_serve(run: Run, pins: dict) -> None:
    warm, rounds = schedule(run)
    traffic = Traffic(run, pins)
    spans = run.path("spans.json") if run.trace else None
    setups = []
    with HostSampler(run) as sampler:
        spawns = 1 if run.trace else SERVE_SETUP_SPAWNS
        for i in range(spawns):
            daemon = Daemon(run, f"daemon{i}", spans)
            setups.append(sampler.normalize(daemon.started,
                                            daemon.ready_at, paused=False))
            if i < spawns - 1:
                daemon.stop()
    try:
        control = Conn(daemon)
        before = control.stats()
        # The prefill: the warm set, one request at a time on an empty
        # cache, each between two reference loops.
        prefill = Conn(daemon)
        cold = raw_cold = 0.0
        loop = run.ref_loop()
        for spec in warm:
            t0 = time.perf_counter()
            traffic.send(prefill, ("cells", spec, "cold"))
            raw = time.perf_counter() - t0
            after = run.ref_loop()
            cold += raw * scale(loop, after)
            raw_cold += raw
            loop = after
        prefill.close()
        traffic.reset()
        busy, factors = traffic.play(daemon, rounds)
        after_stats = control.stats()
        rss = daemon.peak_rss_mb()
        control.close()
        if not daemon.alive():
            run.fail("the daemon exited during the run")
    finally:
        daemon.stop()

    n_led = sum(1 for r in rounds if r[0] == "led")
    n_coal = sum(1 for r in rounds if r[0] == "coalesced")
    delta = {k: after_stats[k] - before[k] for k in after_stats}
    want = {"simulations": len(warm) + 2 * n_led + n_coal,
            "coalesced": n_coal}
    got = {k: delta[k] for k in want}
    run.notes["exact counts"] = json.dumps(got, sort_keys=True)
    if got != want:
        run.problems.append(f"exact counts {got} != expected {want}")
    if delta["errors"]:
        run.fail(f"/stats errors rose by {delta['errors']}")
    warm_ms = traffic.latencies_ms("warm", factors)
    cold_ms = traffic.latencies_ms("cold", factors)

    if run.trace:
        serve_layer_metrics(run, spans, daemon, traffic, delta)
        overhead(run, statistics.median(warm_ms),
                 untraced_warm_p50(run, traffic))
        return
    run.metrics["setup_s"] = statistics.median(setups)
    run.metrics["cold_s"] = cold
    run.metrics["warm_p50_ms"] = statistics.median(warm_ms)
    run.metrics["req_per_s"] = len(traffic.samples) / busy
    run.metrics["peak_rss_mb"] = rss
    raw_warm = [1000.0 * dt for t, _b, dt in traffic.samples if t == "warm"]
    run.notes["raw wall"] = (
        f"prefill {raw_cold:.3f} s, warm p50 "
        f"{statistics.median(raw_warm):.3f} ms")
    run.notes["warm /cells"] = (
        f"p50 {statistics.median(warm_ms):.3f} ms, p99 "
        f"{percentile(warm_ms, 99):.3f} ms ({tail_note(warm_ms, 99)})")
    run.notes["cold /cells"] = (
        f"p50 {statistics.median(cold_ms):.2f} ms, p90 "
        f"{percentile(cold_ms, 90):.2f} ms ({tail_note(cold_ms, 90)}; "
        f"{n_led} led rounds, {n_coal} coalesced rounds)")


def serve_layer_metrics(run: Run, spans: str, daemon: Daemon,
                        traffic: Traffic, delta: dict) -> None:
    import tracing

    with open(spans) as fp:
        daemon_spans = json.load(fp)
    agg = tracing.summarize(daemon_spans)
    m = run.metrics
    common_layer_metrics(m, agg)
    spool_metrics(m, daemon.telemetry)
    m["scheduler.fetch_warm_ms"] = 1000.0 * sum(
        s[2] - s[1] for s in daemon_spans
        if s[0] == "serve.fetch" and s[5]["misses"] == 0)
    m["http.overhead_ms"] = 1000.0 * traffic.overhead_s
    for k in ("simulations", "led", "coalesced", "warm_hits", "errors"):
        m[f"scheduler.{k}"] = delta[k]
    m["scheduler.sims_per_miss"] = (delta["simulations"] / delta["misses"]
                                    if delta["misses"] else 0.0)
    fetch_ms = _ms(agg, "serve.fetch")
    m["telemetry.share_pct"] = (100.0 * m["telemetry.emit_ms"] / fetch_ms
                                if fetch_ms else 0.0)


def untraced_warm_p50(run: Run, traffic: Traffic) -> float:
    """Warm p50 of a plain daemon on the same cache, for the tracing
    overhead."""
    keys = sorted(traffic.payloads)
    rng = random.Random(run.seed)
    rounds = [("warm",
               ("cells", json.loads(rng.choice(keys)), "warm"),
               ("cells", json.loads(rng.choice(keys)), "warm"))
              for _ in range(OVERHEAD_ROUNDS)]
    traffic.reset()
    daemon = Daemon(run, "untraced")
    try:
        _busy, factors = traffic.play(daemon, rounds)
    finally:
        daemon.stop()
    return statistics.median(traffic.latencies_ms("warm", factors))


# -- entry point ------------------------------------------------------------

WORKLOADS = {
    "figs-ff": lambda run, pins: run_cli(run, FIGS_FF, pins),
    "step-bound": lambda run, pins: run_cli(run, STEP_BOUND, pins),
    "serve-mixed": run_serve,
}


def record_pins() -> int:
    """Write pins.json from the current tree (run on a commit whose
    outputs are known to be right)."""
    pins: dict = {"reports": {}, "counts": {}}
    for name, targets in (("figs-ff", FIGS_FF), ("step-bound", STEP_BOUND)):
        run = Run(name, 0, 1, False)
        try:
            reports = [cli_op(run, argv, None)[2] for argv in targets]
            for argv, report in zip(targets, reports):
                pins["reports"][" ".join(argv)] = digest(report)
            pins["counts"][name] = cold_counts(reports)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        if run.failed:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
    with open(PINS, "w") as fp:
        json.dump(pins, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


def print_table(run: Run, spec: dict, section: str) -> None:
    print(f"{run.workload} (seed {run.seed}, {run.seconds} s, "
          f"trace {int(run.trace)}): {run.attempted} ops, "
          f"{run.failed} failed")
    for metric in spec[section]:
        value = run.metrics[metric["name"]]
        print(f"  {metric['name']:28s} {value:14.4f} {metric['unit']}")
    for k, v in run.notes.items():
        print(f"  {k}: {v}")
    for p in run.problems:
        print(f"  PROBLEM: {p}")


def print_layers(run: Run) -> None:
    with open(LAYERS) as fp:
        layers = json.load(fp)
    print("per-layer metric -> end-to-end metric it should move:")
    for layer in layers["layers"]:
        print(f"  [{layer['layer']}] -> {layer['moves']}")
        print(f"      {', '.join(layer['metrics'])}")


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20,
                   choices=range(1, 61), metavar="1..60")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-pins", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    if args.record_pins:
        return record_pins()
    if args.workload is None:
        p.error("--workload is required")
    with open(SPEC) as fp:
        spec = json.load(fp)
    pins = load_pins()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.dir.mkdir(parents=True)
    tempfile.tempdir = run.mkdir("tmp")
    try:
        WORKLOADS[args.workload](run, pins)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.dir.parent.rmdir()
    run.notes["reference loop"] = (
        f"median {statistics.median(run.loops):.2f} ms over "
        f"{len(run.loops)} timings (min {min(run.loops):.2f}, max "
        f"{max(run.loops):.2f}; nominal {REF_LOOP_MS:g})")
    section = "per_layer" if run.trace else "end_to_end"
    if run.trace:
        run.metrics["host.calib_ms"] = statistics.median(run.loops)
        print_layers(run)
    names = [m["name"] for m in spec[section]]
    if run.trace:
        # Layers a workload never reaches read 0 (see layers.json).
        for name in names:
            run.metrics.setdefault(name, 0)
    print_table(run, spec, section)
    units = {m["name"]: m["unit"] for m in spec[section]}
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n], "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
