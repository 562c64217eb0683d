"""The serving scheduler: persistent executor, warm fast path, coalescing.

One :class:`CellScheduler` lives for the whole daemon.  Its
:meth:`fetch` is the single entry point every request handler uses.
The scheduler is a :class:`repro.sweep.engine.CellPipeline`, so each
cell takes exactly the CLI engine's path — probe, preflight, execute,
oracle, publish, with the same publish rule: only checked results
reach the store, so a warm hit is answered from the store without
re-running any check.  What the daemon adds:

* the **single-flight table** around the misses: a request leads the
  cells nobody else is computing and joins the flights of cells
  already in the air; the leader runs the pipeline over the cells it
  leads and lands their flights with the computed text;
* one **persistent executor**, built and drained by the CLI engine's
  own :func:`~repro.sweep.engine._new_executor` and ``_run_tasks``, so
  a cell computed here is byte-identical to the CLI's, and a dead
  worker fails its cells at once (the next batch builds a new executor);
* its counters.

Counters (:class:`ServeCounters`) are the observable contract the
benchmarks assert on: a warm batch must leave ``pool_dispatches``
untouched, and 16 concurrent identical cold requests must record
exactly one ``simulations`` increment.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import CheckError, ConfigError, WorkerLost
from repro.serve.coalesce import SingleFlight
from repro.sweep.cache import ResultCache
from repro.sweep.cells import SweepCell, cell_label, runner_for
from repro.sweep.engine import CellPipeline, Task, _new_executor, _run_tasks
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.bus import now as _now

#: Ceiling on how long a joiner waits for a leader's flight.  Far
#: above any single cell's wall time; a wait this long means the
#: leader's thread died without landing the flight (a dead worker
#: fails it at once), and hanging the client forever helps nobody.
FLIGHT_TIMEOUT_S = 600.0


@dataclass
class ServeCounters:
    """Monotonic service counters, exposed by ``/stats``.

    ``simulations`` counts cells actually executed (each exactly once
    per computation, coalescing included); ``pool_dispatches`` counts
    tasks handed to the worker pool.
    """

    batches: int = 0
    cells: int = 0
    warm_hits: int = 0
    misses: int = 0
    coalesced: int = 0
    led: int = 0
    simulations: int = 0
    pool_dispatches: int = 0
    preflight_rejected: int = 0
    oracle_failed: int = 0
    errors: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, d in deltas.items():
                setattr(self, name, getattr(self, name) + d)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "batches": self.batches,
                "cells": self.cells,
                "warm_hits": self.warm_hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "led": self.led,
                "simulations": self.simulations,
                "pool_dispatches": self.pool_dispatches,
                "preflight_rejected": self.preflight_rejected,
                "oracle_failed": self.oracle_failed,
                "errors": self.errors,
            }


@dataclass
class BatchOutcome:
    """Per-request accounting, echoed in every response's ``serve``
    section (volatile — never part of a manifest)."""

    cells: int = 0
    warm_hits: int = 0
    misses: int = 0
    coalesced: int = 0
    led: int = 0
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cells": self.cells,
            "warm_hits": self.warm_hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "led": self.led,
            "wall_s": self.wall_s,
        }


class CellScheduler(CellPipeline):
    """Executes cell batches for the daemon; safe to call from any
    number of request-handler threads concurrently."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        check: bool = True,
        telemetry_dir: Optional[str] = None,
        telemetry: bool = True,
    ):
        if not isinstance(jobs, int) or jobs < 1:
            raise ConfigError("jobs must be a positive integer")
        self.jobs = jobs
        self.check = check
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.counters = ServeCounters()
        self._flights = SingleFlight()
        self._pool: Optional[Any] = None
        self._pool_lock = threading.Lock()
        self.telemetry = None
        if telemetry:
            from repro import telemetry as _telemetry

            if _telemetry.enabled_by_env():
                path = _telemetry.new_log_path(telemetry_dir,
                                               prefix="serve")
                self.telemetry = TelemetryBus(path)

    # -- pool lifecycle ------------------------------------------------

    def start(self) -> None:
        """Fork the executor's workers up-front (daemon start sequence).

        Forking after the event loop and executor threads exist is
        legal but fragile; the daemon calls this before it opens the
        listening socket so workers inherit a quiet parent.  Also the
        point of the exercise: clients never pay pool spin-up.  The
        executor forks at its first submit, hence one trivial task.
        """
        self._ensure_pool().submit(os.getpid).result()

    def _ensure_pool(self) -> Any:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _new_executor(self.jobs, self.telemetry)
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # shutdown() waits for a running cell to finish, and Python
            # 3.10-3.12 has no public way to stop one (terminate_workers
            # arrives in 3.14), so end the workers first through the
            # executor's private process table.
            for proc in list(pool._processes.values()):
                proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
        if self.telemetry is not None:
            self.telemetry.close()

    # -- the request path ----------------------------------------------

    def fetch(self, cells: Sequence[SweepCell], fresh: bool = False,
              keys: Optional[Sequence[str]] = None,
              ) -> Tuple[List[str], BatchOutcome]:
        """Resolve a batch; returns canonical payload texts in order.

        ``fresh`` skips the warm probe (the cells still coalesce with
        any identical in-flight computation, and their results
        overwrite the store).  ``keys``, when the caller already
        derived them, are the cells' cache keys in order.
        """
        t0 = _now()
        n = len(cells)
        outcome = BatchOutcome(cells=n)
        keys = (list(keys) if keys is not None
                else [cell.key() for cell in cells])
        labels = [cell_label(cell) for cell in cells]
        bus = self.telemetry
        if bus is not None:
            bus.emit("sweep-begin", cells=n, jobs=self.jobs,
                     cache_enabled=self.cache is not None)

        # The warm fast path.  Nothing below the probe runs for a
        # fully-warm batch — no flights, no preflight, no pool.
        payloads, miss_idx = self._probe(cells, keys, labels, fresh)
        texts = [None if p is None else json.dumps(p) for p in payloads]
        outcome.warm_hits = n - len(miss_idx)
        outcome.misses = len(miss_idx)

        if miss_idx:
            self._resolve_misses(cells, keys, labels, miss_idx, texts,
                                 outcome, fresh)

        outcome.wall_s = _now() - t0
        self.counters.add(batches=1, cells=n,
                          warm_hits=outcome.warm_hits,
                          misses=outcome.misses,
                          coalesced=outcome.coalesced,
                          led=outcome.led)
        if bus is not None:
            bus.emit("sweep-end", cells=n, hits=outcome.warm_hits,
                     misses=outcome.misses, wall_s=outcome.wall_s)
        unresolved = [labels[i] for i, t in enumerate(texts)
                      if t is None]
        if unresolved:
            # Positional alignment with the requested cells is the
            # response contract; a hole here is an internal bug, and
            # silently dropping it would misalign every later payload.
            raise RuntimeError(
                "batch resolution left cells without payloads: "
                + ", ".join(unresolved))
        return list(texts), outcome

    def fetch_payloads(self, cells: Sequence[SweepCell],
                       fresh: bool = False,
                       keys: Optional[Sequence[str]] = None,
                       ) -> Tuple[List[dict], BatchOutcome]:
        texts, outcome = self.fetch(cells, fresh=fresh, keys=keys)
        return [json.loads(t) for t in texts], outcome

    def fetch_results(self, cells: Sequence[SweepCell],
                      fresh: bool = False
                      ) -> Tuple[List[Any], BatchOutcome]:
        """Decoded driver-result objects (what the report builders eat)."""
        payloads, outcome = self.fetch_payloads(cells, fresh=fresh)
        return [runner_for(c.kind).decode(p)
                for c, p in zip(cells, payloads)], outcome

    # -- the cold path -------------------------------------------------

    def _resolve_misses(self, cells: Sequence[SweepCell],
                        keys: List[str], labels: List[str],
                        miss_idx: List[int],
                        texts: List[Optional[str]],
                        outcome: BatchOutcome, fresh: bool) -> None:
        led, joined = self._flights.begin_many([keys[i] for i in miss_idx])
        # begin_many indexes into miss_idx's order; map back to batch
        # indices.
        led = [(miss_idx[j], flight) for j, flight in led]
        joined = [(miss_idx[j], flight) for j, flight in joined]
        if not fresh and self.cache is not None:
            # A leader may have published one of these cells between our
            # probe and our claim: land those flights from the store
            # instead of simulating the cell a second time.
            still = []
            for i, flight in led:
                payload = self._stored(cells[i], keys[i])
                if payload is None:
                    still.append((i, flight))
                    continue
                texts[i] = json.dumps(payload)
                self._flights.finish(flight, text=texts[i])
                if self.telemetry is not None:
                    self.telemetry.emit("cache-hit", idx=i, cell=labels[i])
            landed = len(led) - len(still)
            outcome.warm_hits += landed
            outcome.misses -= landed
            led = still
        outcome.led = len(led)
        outcome.coalesced = len(joined)

        try:
            if led:
                self._lead(cells, keys, labels, led)
        except BaseException:
            # Leader failures must not strand joiners of *other*
            # flights this request also joined; those leaders land
            # their own flights.  Ours were failed inside _lead.
            for i, flight in joined:
                try:
                    texts[i] = flight.wait(FLIGHT_TIMEOUT_S)
                except BaseException:
                    pass
            raise
        # Led flights are resolved by _lead itself; joined ones by
        # whichever request leads them.  Either way the flight now
        # holds the canonical text.
        for i, flight in led:
            texts[i] = flight.wait(FLIGHT_TIMEOUT_S)
        for i, flight in joined:
            texts[i] = flight.wait(FLIGHT_TIMEOUT_S)

    def _lead(self, cells: Sequence[SweepCell], keys: List[str],
              labels: List[str],
              led: List[Tuple[int, Any]]) -> None:
        """Compute the cells this request leads; land their flights.

        Every led flight is landed exactly once no matter how this
        method exits.  Success resolves each flight with its canonical
        text; *any* exception — a check rejection, a worker exception
        re-raised by the executor, a dead worker, a store
        error — fails every still-open flight before propagating.  A
        flight left unlanded would wedge its key permanently: current
        joiners block out FLIGHT_TIMEOUT_S and every future request
        joins the dead flight instead of leading a new one.
        """
        try:
            computed = self._compute(cells, keys, labels,
                                     [i for i, _f in led])
            for (_i, flight), (text, _meta, _result) in zip(led, computed):
                self._flights.finish(flight, text=text)
        except BaseException as e:
            for _i, flight in led:
                if not flight.event.is_set():
                    self._flights.finish(flight, error=e)
            raise

    def _rejected(self, stage: str, err: CheckError, n: int) -> None:
        if stage == "oracle":
            self.counters.add(oracle_failed=n, errors=1)
        else:
            self.counters.add(preflight_rejected=n, errors=1)

    def _execute(self, tasks: List[Task]) -> List[Tuple[str, dict]]:
        """Run led cells on the persistent executor, in order.

        On :class:`WorkerLost` the broken executor is dropped (only if
        still current, so leaders that lost it together leave one fresh
        executor for later batches); :meth:`_lead` fails the flights.
        """
        pool = self._ensure_pool()
        self.counters.add(pool_dispatches=len(tasks), simulations=len(tasks))
        try:
            return _run_tasks(pool, tasks)
        except WorkerLost:
            with self._pool_lock:
                if self._pool is pool:
                    self._pool = None
            raise

    # -- introspection -------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        from repro import __version__

        return {
            "version": __version__,
            "pid": os.getpid(),
            "jobs": self.jobs,
            "pool_live": self._pool is not None,
            "check": self.check,
            "cache": ({"enabled": True, "dir": str(self.cache.root),
                       "objects": len(self.cache)}
                      if self.cache is not None else {"enabled": False}),
            "telemetry": ({"log": self.telemetry.path,
                           "run": self.telemetry.run_id}
                          if self.telemetry is not None else None),
            "in_flight": self._flights.in_flight(),
            "counters": self.counters.snapshot(),
        }
