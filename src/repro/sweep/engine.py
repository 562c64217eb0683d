"""The cell pipeline: probe, preflight, execute, oracle, publish.

Every cell either front end asks for — a CLI sweep
(:class:`SweepEngine`) or a daemon request
(:class:`repro.serve.scheduler.CellScheduler`) — takes the same path,
implemented once in :class:`CellPipeline`:

1. **probe** — one :meth:`ResultCache.get` per cell (unless caching is
   off or ``fresh`` forces recomputation).  A hit is returned as
   stored, without re-running any check;
2. **preflight** — the static checks (:func:`repro.check.preflight_cells`)
   over the cells that missed;
3. **execute** — :func:`_run_tasks` runs the misses on an executor
   from :func:`_new_executor` (the engine: in-process when ``jobs ==
   1``, else one per run; the daemon: one persistent executor), in
   submission order; a worker that dies mid-cell fails the batch's
   unfinished cells at once with :class:`~repro.common.errors.WorkerLost`;
4. **oracle** — the differential model oracle
   (:func:`repro.model.oracle_cells`) over the fresh results;
5. **publish** — the fresh results go to the cache.

One rule makes the warm path sound: **a result is checked once, before
it is published, and the store holds only checked results.**  With
``check`` off (``--no-check``) the pipeline still reads checked
entries but never publishes, so an unchecked result can never be served
as a trusted one later.

Every result, fresh or cached, is round-tripped through the same
canonical JSON encoding before being handed back, so serial, parallel
and warm-cache runs of the same sweep produce byte-identical reports
(modulo wall-time fields).  Workers execute :func:`_execute_cell`, a
module-level function, so the only thing pickled per task is the
(small, self-contained) cell.

Telemetry (:mod:`repro.telemetry`) rides along as a pure observer:
when a bus is attached, the parent emits sweep/phase/cache events and
every worker emits per-cell begin/end spans (with the cell's fastpath
counter deltas) to the same JSONL log.  Workers also return a small
metadata record next to each result text; the engine folds those into
:class:`SweepStats` regardless of whether a bus is attached.  Nothing
telemetry-derived may influence results, cache entries, or
non-volatile report bytes — the equivalence suite holds reports
byte-identical with telemetry on vs off.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.common.errors import CheckError, ConfigError, WorkerLost
from repro.cpu import fastpath as _fastpath
from repro.sweep.cache import ResultCache
from repro.sweep.cells import SweepCell, cell_label, runner_for
from repro.sweep.keys import CACHE_SCHEMA_VERSION
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.bus import now as _now

#: The executing side's bus — the parent's during serial execution,
#: a per-process reconstruction in pool workers (set by _pool_init).
_worker_bus: Optional[TelemetryBus] = None


#: One execution task: (batch index, cell, label, enqueue timestamp).
Task = Tuple[int, SweepCell, str, float]


def _pool_init(fastpath_default: bool,
               telemetry_path: Optional[str] = None,
               run_id: Optional[str] = None) -> None:
    """Carry the parent's fast-forward default and telemetry target
    into pool workers.

    Both live in module state, which a ``spawn``-start worker would
    re-import fresh; forwarding them through the initializer makes
    ``--no-fastpath`` and ``--no-telemetry`` govern every execution
    path.  Each worker opens its own ``O_APPEND`` descriptor on the
    shared log — appends are atomic per record, so streams interleave
    without locks.
    """
    from repro.cpu.fastpath import set_default_enabled

    set_default_enabled(fastpath_default)
    global _worker_bus
    _worker_bus = (TelemetryBus(telemetry_path, run_id=run_id)
                   if telemetry_path is not None else None)


def _execute_cell(cell: SweepCell) -> str:
    """Run one cell; return its encoded result as JSON text.

    Returning *text* (not objects) makes the parallel path bit-faithful
    to the cache path: the parent always decodes results from JSON, so
    a fresh run and a warm-cache run reconstruct identical objects.
    """
    runner = runner_for(cell.kind)
    return json.dumps(runner.encode(runner.run(cell)))


def _execute_task(task: Task) -> Tuple[str, dict]:
    """Instrumented wrapper around :func:`_execute_cell`.

    Returns ``(text, meta)``: the result text is byte-identical to what
    the uninstrumented path produces (the cache entry and the decoded
    result are built from it alone), and ``meta`` carries the wall
    span, queue wait, and the cell's fastpath counter delta back to the
    parent — the file-backed collector of the telemetry design.
    """
    idx, cell, label, enqueue_ts = task
    bus = _worker_bus
    t0 = _now()
    queue_wait = max(t0 - enqueue_ts, 0.0)
    if bus is not None:
        bus.emit("cell-begin", idx=idx, cell=label, queue_wait_s=queue_wait)
    fp_stats = _fastpath.reset_stats()
    text = _execute_cell(cell)
    wall = _now() - t0
    fastpath = fp_stats.to_dict()
    if bus is not None:
        bus.emit("cell-end", idx=idx, cell=label, wall_s=wall,
                 fastpath=fastpath)
    meta = {"idx": idx, "cell": label, "pid": os.getpid(), "wall_s": wall,
            "queue_wait_s": queue_wait, "fastpath": fastpath}
    return text, meta


def _new_executor(jobs: int, bus: Optional[TelemetryBus]) -> Any:
    """A process-pool executor of ``jobs`` workers carrying the parent's
    fast-forward default and telemetry target (see :func:`_pool_init`);
    the CLI builds one per run, the daemon keeps one until a worker dies.
    """
    # Imported here: it would add about 10 ms to every CLI start-up,
    # and only --jobs > 1 and the daemon need it.
    from concurrent.futures import ProcessPoolExecutor

    # Fork keeps the parent's hash seed and registry state in the
    # children; fall back to the platform default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    return ProcessPoolExecutor(
        max_workers=jobs, mp_context=context, initializer=_pool_init,
        initargs=(_fastpath.default_enabled(),
                  bus.path if bus is not None else None,
                  bus.run_id if bus is not None else None))


def _run_tasks(executor: Any, tasks: List[Task]) -> List[Tuple[str, dict]]:
    """Run ``tasks`` on ``executor``, results in submission order.

    A dead worker breaks the executor and fails every unfinished task at
    once (a ``multiprocessing`` pool would leave its task unanswered
    forever): that becomes :class:`WorkerLost` naming their cells.
    """
    from concurrent.futures.process import BrokenProcessPool

    futures: List[Any] = []
    try:
        for task in tasks:
            futures.append(executor.submit(_execute_task, task))
        return [f.result() for f in futures]
    except BrokenProcessPool:
        # Tasks never submitted (the executor broke first) are lost too.
        lost = [label for j, (_i, _cell, label, _ts) in enumerate(tasks)
                if j >= len(futures) or futures[j].exception() is not None]
        raise WorkerLost(
            f"a pool worker died mid-cell; {len(lost)} cell(s) "
            f"did not finish: {', '.join(lost)}") from None


class CellPipeline:
    """Probe, preflight, execute, oracle, publish — for both front ends.

    Subclasses provide :meth:`_execute` and may extend the accounting
    hooks :meth:`_phase` and :meth:`_rejected`; the order of the stages
    and the publish rule (see the module docstring) live here only.
    """

    cache: Optional[ResultCache]
    check: bool
    telemetry: Optional[TelemetryBus]

    def _phase(self, name: str, wall: float) -> None:
        if self.telemetry is not None:
            self.telemetry.emit("phase", name=name, wall_s=wall)

    def _rejected(self, stage: str, err: CheckError, n: int) -> None:
        """Account ``n`` cells that failed ``stage`` (preflight/oracle)."""

    def _execute(self, tasks: List[Task]) -> List[Tuple[str, dict]]:
        raise NotImplementedError

    def _probe(self, cells: Sequence[SweepCell], keys: List[str],
               labels: List[str], fresh: bool,
               ) -> Tuple[List[Optional[dict]], List[int]]:
        """Look every cell up in the store.

        Returns the stored result payloads (``None`` for a miss) and the
        indices of the misses.  A hit is trusted as stored: only checked
        results are ever published.
        """
        bus = self.telemetry
        t0 = _now()
        payloads: List[Optional[dict]] = [None] * len(cells)
        misses: List[int] = []
        for i, cell in enumerate(cells):
            payload = None if fresh else self._stored(cell, keys[i])
            if payload is not None:
                payloads[i] = payload
                if bus is not None:
                    bus.emit("cache-hit", idx=i, cell=labels[i])
            else:
                misses.append(i)
        self._phase("probe", _now() - t0)
        return payloads, misses

    def _stored(self, cell: SweepCell, key: str) -> Optional[dict]:
        """The result payload the store holds for ``cell``, or None."""
        entry = self.cache.get(key) if self.cache is not None else None
        if entry is not None and entry.get("kind") == cell.kind:
            return entry["result"]
        return None

    def _compute(self, cells: Sequence[SweepCell], keys: List[str],
                 labels: List[str], idxs: List[int],
                 ) -> List[Tuple[str, dict, Any]]:
        """Preflight, execute, oracle-check and publish ``cells[idxs]``.

        Returns ``(text, meta, result)`` per cell, in ``idxs`` order.  A
        :class:`CheckError` from either gate is counted through
        :meth:`_rejected` and re-raised before anything is published.
        """
        bus = self.telemetry
        batch = [cells[i] for i in idxs]
        t0 = _now()
        if self.check and batch:
            from repro.check.preflight import preflight_cells

            try:
                preflight_cells(batch)
            except CheckError as e:
                self._rejected("preflight", e, len(batch))
                if bus is not None:
                    # Synthetic terminal event so the live view shows
                    # *why* the sweep died: no cell simulated (empty
                    # fastpath delta), idx -1, and the rejecting pass
                    # riding along as extra fields.
                    bus.emit("cell-end", idx=-1, cell="preflight",
                             wall_s=_now() - t0, fastpath={},
                             rejected=len(batch),
                             check=getattr(e, "check", "") or "preflight")
                raise
        self._phase("preflight", _now() - t0)

        t0 = _now()
        if bus is not None:
            for i in idxs:
                bus.emit("enqueue", idx=i, cell=labels[i])
        outcomes = self._execute([(i, cells[i], labels[i], t0)
                                  for i in idxs])
        self._phase("execute", _now() - t0)
        payloads = [json.loads(text) for text, _meta in outcomes]
        results = [runner_for(cell.kind).decode(payload)
                   for cell, payload in zip(batch, payloads)]

        t0 = _now()
        if self.check and batch:
            # Differential oracle: every simulated result must sit
            # inside the CPI interval the analytic model proves for its
            # cell — raises ModelViolation if not.
            from repro.model.oracle import oracle_cells

            try:
                oracle_cells(batch, results)
            except CheckError as e:
                self._rejected("oracle", e, len(batch))
                raise
        self._phase("oracle", _now() - t0)

        # Publish only what both gates passed: warm hits, in either
        # front end, are served without re-checking.
        t0 = _now()
        if self.check and self.cache is not None:
            for i, cell, payload in zip(idxs, batch, payloads):
                self.cache.put(keys[i], {
                    "cache_schema_version": CACHE_SCHEMA_VERSION,
                    "repro_version": __version__,
                    "kind": cell.kind,
                    "config": cell.config,
                    "result": payload,
                })
        self._phase("store", _now() - t0)
        return [(text, meta, result)
                for (text, meta), result in zip(outcomes, results)]


@dataclass
class SweepStats:
    """Cache/parallelism accounting for one engine's sweeps.

    Hit/miss/cell totals count *measurements that stand*: the cells of
    a batch that fail preflight or the model oracle are recorded under
    ``preflight_rejected``/``oracle_failed`` instead — a rejected cell
    is not a cache outcome, and an oracle-violating batch produced no
    trustworthy results to account hits against.  A batch killed
    specifically by the pair-certificate machine check (the compose
    pass) lands in ``pair_cert_rejected``, its own bucket: a forged or
    stale joint certificate is a certification defect, not a stale
    recipe, and the two must stay distinguishable in telemetry.
    """

    cells: int = 0
    hits: int = 0
    misses: int = 0
    jobs: int = 1
    cache_enabled: bool = False
    cache_dir: Optional[str] = None
    preflight_rejected: int = 0
    pair_cert_rejected: int = 0
    oracle_failed: int = 0
    #: Elapsed wall per engine phase (volatile; lives inside the
    #: report's "sweep" block, which strip_volatile removes).
    phase_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Merged fastpath counter deltas from every simulated cell.
    fastpath: Dict[str, Any] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.cells if self.cells else 0.0

    def to_dict(self) -> dict:
        return {
            "cells": self.cells,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "jobs": self.jobs,
            "cache_enabled": self.cache_enabled,
            "cache_dir": self.cache_dir,
            "preflight_rejected": self.preflight_rejected,
            "pair_cert_rejected": self.pair_cert_rejected,
            "oracle_failed": self.oracle_failed,
            "phase_wall_s": {k: self.phase_wall_s[k]
                             for k in sorted(self.phase_wall_s)},
            "fastpath": self.fastpath,
        }

    def describe(self) -> str:
        cache = (f"{self.hits} cache hits, {self.misses} misses "
                 f"({self.hit_rate:.0%} cached)"
                 if self.cache_enabled else "cache off")
        return f"sweep: {self.cells} cells — {cache} (jobs={self.jobs})"


@dataclass
class SweepEngine(CellPipeline):
    """Runs cell lists synchronously with optional parallelism and
    memoization.

    ``jobs=1`` with no cache reproduces the pre-engine serial
    behaviour exactly.  One engine instance accumulates stats across
    all its ``run`` calls (a figure may sweep in several batches).
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    fresh: bool = False
    check: bool = True
    telemetry: Optional[TelemetryBus] = None
    stats: SweepStats = field(init=False)

    def __post_init__(self):
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ConfigError("jobs must be a positive integer")
        self.stats = SweepStats(
            jobs=self.jobs,
            cache_enabled=self.cache is not None,
            cache_dir=(str(self.cache.root)
                       if self.cache is not None else None),
        )

    def _phase(self, name: str, wall: float) -> None:
        self.stats.phase_wall_s[name] = (
            self.stats.phase_wall_s.get(name, 0.0) + wall)
        super()._phase(name, wall)

    def _rejected(self, stage: str, err: CheckError, n: int) -> None:
        if stage == "oracle":
            self.stats.oracle_failed += n
        elif getattr(err, "check", "") == "compose":
            self.stats.pair_cert_rejected += n
        else:
            self.stats.preflight_rejected += n

    def run(self, cells: Sequence[SweepCell]) -> List[Any]:
        """Execute ``cells``; return their results in submission order.

        Cache hits come back as stored.  Unless ``check`` is off, every
        miss is statically analyzed first — a cell whose stream recipe
        or workload fingerprint is stale, whose stream fails the
        hazard/unit passes, or whose workload races, raises
        :class:`~repro.common.errors.CheckError` before anything is
        simulated — and its fresh result must pass the model oracle
        before it is cached.
        """
        bus = self.telemetry
        stats = self.stats
        n = len(cells)
        run_t0 = _now()
        if bus is not None:
            bus.emit("sweep-begin", cells=n, jobs=self.jobs,
                     cache_enabled=self.cache is not None)
        keys = ([cell.key() for cell in cells]
                if self.cache is not None else [""] * n)
        labels = [cell_label(cell) for cell in cells]
        payloads, miss_idx = self._probe(cells, keys, labels, self.fresh)
        results = [None if payload is None
                   else runner_for(cell.kind).decode(payload)
                   for cell, payload in zip(cells, payloads)]
        computed = self._compute(cells, keys, labels, miss_idx)
        for i, (_text, meta, result) in zip(miss_idx, computed):
            results[i] = result
            _fastpath.merge_stats(stats.fastpath, meta["fastpath"])

        # Commit the accounting only for batches whose results stand.
        hits, misses = n - len(miss_idx), len(miss_idx)
        stats.cells += n
        stats.hits += hits
        stats.misses += misses
        if bus is not None:
            bus.emit("sweep-end", cells=n, hits=hits, misses=misses,
                     wall_s=_now() - run_t0)
        return results

    def _execute(self, tasks: List[Task]) -> List[Tuple[str, dict]]:
        if self.jobs == 1 or len(tasks) < 2:
            # Serial execution happens in-process: point the worker-side
            # bus at the engine's own for the duration.
            global _worker_bus
            prev = _worker_bus
            _worker_bus = self.telemetry
            try:
                return [_execute_task(t) for t in tasks]
            finally:
                _worker_bus = prev
        executor = _new_executor(min(self.jobs, len(tasks)), self.telemetry)
        try:
            return _run_tasks(executor, tasks)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
