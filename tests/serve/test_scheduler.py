"""CellScheduler behaviour: warm path, cold path, cache interop,
oracle rejection, preflight rejection, leader-failure flight landing,
a worker killed mid-cell, concurrent coalescing."""

import json
import os
import signal
import threading
import time

import pytest

from repro.common.errors import CheckError, ConfigError
from repro.isa.streams import ILP
from repro.serve import scheduler as scheduler_mod
from repro.serve.client import ServeError
from repro.serve.scheduler import CellScheduler
from repro.sweep import ResultCache, SweepEngine, runner_for, stream_cell
from repro.sweep.cells import cell_label

#: Small horizon: each cell runs in tens of milliseconds while still
#: reaching the steady-state marker (same constant as the engine tests).
H = 8_000


def _cells(names=("iadd", "fadd"), threads=(1,), ilps=(ILP.MAX,)):
    return [stream_cell(n, ilp, t, horizon_ticks=H)
            for n in names for t in threads for ilp in ilps]


def _scheduler(tmp_path, **kw):
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    kw.setdefault("telemetry", False)
    s = CellScheduler(**kw)
    return s


class TestWarmPath:
    def test_warm_batch_never_touches_the_pool(self, tmp_path):
        """The tentpole pillar: a fully-warm batch is answered from the
        store with zero pool dispatches — the pool is not even built."""
        cells = _cells()
        cache = ResultCache(tmp_path / "cache")
        engine_results = SweepEngine(cache=cache).run(cells)

        s = _scheduler(tmp_path)
        try:
            results, outcome = s.fetch_results(cells)
            snap = s.counters.snapshot()
            assert outcome.warm_hits == len(cells)
            assert outcome.misses == 0
            assert snap["pool_dispatches"] == 0
            assert snap["simulations"] == 0
            assert s._pool is None  # never spun up
            assert [(r.stream, r.cpi) for r in results] == \
                [(r.stream, r.cpi) for r in engine_results]
        finally:
            s.close()

    def test_warm_payloads_byte_identical_to_engine_encoding(self,
                                                             tmp_path):
        cells = _cells(names=("iadd",))
        cache = ResultCache(tmp_path / "cache")
        engine_results = SweepEngine(cache=cache).run(cells)
        encoded = [runner_for(c.kind).encode(r)
                   for c, r in zip(cells, engine_results)]

        s = _scheduler(tmp_path)
        try:
            texts, _ = s.fetch(cells)
            assert [json.loads(t) for t in texts] == encoded
        finally:
            s.close()


class TestColdPath:
    def test_cold_batch_computes_and_warms_the_engine(self, tmp_path):
        """Interop in the serve->CLI direction: entries the daemon
        publishes are hits for a subsequent SweepEngine run."""
        cells = _cells(names=("iadd",))
        s = _scheduler(tmp_path)
        try:
            results, outcome = s.fetch_results(cells)
            assert outcome.misses == len(cells)
            assert outcome.led == len(cells)
            assert s.counters.snapshot()["simulations"] == len(cells)
        finally:
            s.close()

        engine = SweepEngine(cache=ResultCache(tmp_path / "cache"))
        engine_results = engine.run(cells)
        assert engine.stats.hits == len(cells)
        assert [(r.stream, r.cpi) for r in engine_results] == \
            [(r.stream, r.cpi) for r in results]

    def test_fresh_recomputes_despite_warm_store(self, tmp_path):
        cells = _cells(names=("iadd",))
        s = _scheduler(tmp_path)
        try:
            s.fetch(cells)
            before = s.counters.snapshot()["simulations"]
            _texts, outcome = s.fetch(cells, fresh=True)
            assert outcome.warm_hits == 0
            assert s.counters.snapshot()["simulations"] == \
                before + len(cells)
        finally:
            s.close()

    def test_disabled_cache_always_computes(self, tmp_path):
        cells = _cells(names=("iadd",))
        s = CellScheduler(cache_dir=None, telemetry=False)
        try:
            s.fetch(cells)
            _texts, outcome = s.fetch(cells)
            assert outcome.warm_hits == 0
            assert s.counters.snapshot()["simulations"] == 2 * len(cells)
        finally:
            s.close()

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError):
            CellScheduler(jobs=0, telemetry=False)


class TestPreflightRejection:
    def test_stale_recipe_rejected_and_counted(self, tmp_path):
        cell = _cells(names=("iadd",))[0]
        bad = type(cell)(kind=cell.kind,
                         config={**cell.config,
                                 "recipe": {"ops": ["IADD"],
                                            "stride": 999}})
        s = _scheduler(tmp_path)
        try:
            with pytest.raises(CheckError):
                s.fetch([bad])
            snap = s.counters.snapshot()
            assert snap["preflight_rejected"] == 1
            assert snap["simulations"] == 0
            # The flight was failed, not leaked.
            assert s._flights.in_flight() == 0
        finally:
            s.close()


class TestOracleRejection:
    def test_oracle_failure_never_reaches_the_store(self, tmp_path,
                                                    monkeypatch):
        """A model-rejected result must never reach the store — not
        even transiently.  The warm path (and any concurrent request
        probing the store) skips the oracle, so an entry published
        before the oracle ran could be served in the window before a
        discard; publication therefore happens only after the oracle
        accepts."""
        import repro.model.oracle as oracle_mod

        cells = _cells(names=("iadd",))
        s = _scheduler(tmp_path)
        assert s.cache is not None
        seen_in_store = []

        def failing_oracle(cells_, results_):
            # Snapshot the store from *inside* the oracle: this is the
            # widest point of the old publish-then-discard window.
            seen_in_store.append(
                [s.cache.get(c.key()) for c in cells])
            raise CheckError("model bound violated (injected)")

        monkeypatch.setattr(oracle_mod, "oracle_cells", failing_oracle)
        try:
            with pytest.raises(CheckError):
                s.fetch(cells)
            snap = s.counters.snapshot()
            assert snap["oracle_failed"] == len(cells)
            assert s._flights.in_flight() == 0
            # Nothing was published while the oracle deliberated, and
            # nothing is in the store after the rejection.
            assert seen_in_store == [[None] * len(cells)]
            assert all(s.cache.get(c.key()) is None for c in cells)
        finally:
            s.close()

        # And with the oracle restored, a fresh scheduler recomputes
        # rather than serving anything stale.
        monkeypatch.undo()
        s2 = _scheduler(tmp_path)
        try:
            _texts, outcome = s2.fetch(cells)
            assert outcome.warm_hits == 0
        finally:
            s2.close()


class TestEngineOracleRejection:
    def test_cli_rejected_result_is_never_warm_served(self, tmp_path,
                                                      monkeypatch):
        """The engine-side twin of TestOracleRejection.  The CLI engine
        and the daemon share one store, and the daemon serves warm hits
        without re-checking them — so a result the oracle rejected in a
        CLI sweep must never reach the store, or the daemon would later
        serve it as trusted."""
        import repro.model.oracle as oracle_mod

        cells = _cells(names=("iadd",))
        cache = ResultCache(tmp_path / "cache")
        seen_in_store = []

        def failing_oracle(cells_, results_):
            seen_in_store.append([cache.get(c.key()) for c in cells])
            raise CheckError("model bound violated (injected)")

        monkeypatch.setattr(oracle_mod, "oracle_cells", failing_oracle)
        engine = SweepEngine(cache=cache)
        with pytest.raises(CheckError):
            engine.run(cells)
        assert engine.stats.oracle_failed == len(cells)
        assert seen_in_store == [[None] * len(cells)]
        assert all(cache.get(c.key()) is None for c in cells)

        monkeypatch.undo()
        s = _scheduler(tmp_path)
        try:
            _texts, outcome = s.fetch(cells)
            assert outcome.warm_hits == 0
            assert outcome.led == len(cells)
        finally:
            s.close()


class TestLeaderFailureLandsFlights:
    def test_unexpected_worker_error_frees_the_key(self, tmp_path,
                                                   monkeypatch):
        """Regression: a leader failing with anything *other* than a
        CheckError (worker exception from p.get(), pool construction
        failure, store error...) must still fail its flights.  An
        unlanded flight wedges the key permanently — joiners block out
        FLIGHT_TIMEOUT_S and every later request joins the dead flight
        instead of leading a new one."""
        cells = _cells(names=("iadd",))
        s = _scheduler(tmp_path)

        def exploding_execute(tasks):
            raise RuntimeError("worker died (injected)")

        monkeypatch.setattr(s, "_execute", exploding_execute)
        try:
            with pytest.raises(RuntimeError):
                s.fetch(cells)
            # The flight was failed and retired, not leaked.
            assert s._flights.in_flight() == 0

            # The key is immediately retryable: the next fetch leads a
            # fresh flight and succeeds once the fault is gone.
            monkeypatch.undo()
            _texts, outcome = s.fetch(cells)
            assert outcome.led == len(cells)
            assert outcome.warm_hits == 0
        finally:
            s.close()


def _kill_own_worker(task):
    """Pool task stand-in: the worker dies mid-cell, losing the task."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestDeadWorker:
    def test_killed_worker_fails_in_bounded_time_and_frees_the_key(
            self, tmp_path, monkeypatch, daemon_factory):
        """A worker killed mid-cell never returns its result.  The
        leader's wait is bounded, the request fails as a counted 500,
        and the key is immediately retryable."""
        bound = 2.0
        monkeypatch.setattr(scheduler_mod, "FLIGHT_TIMEOUT_S", bound)
        monkeypatch.setattr(scheduler_mod, "_execute_task",
                            _kill_own_worker)
        d = daemon_factory(cache_dir=str(tmp_path), telemetry=False)
        cell = _cells(names=("iadd",))[0]
        spec = {"kind": cell.kind, "config": cell.config}
        with d.client() as c:
            t0 = time.monotonic()
            with pytest.raises(ServeError) as exc:
                c.cells([spec])
            assert time.monotonic() - t0 < bound + 10.0
            assert exc.value.status == 500
            error = exc.value.payload["error"]
            assert error.startswith("WorkerTimeout: ")
            assert cell_label(cell) in error
            assert f"FLIGHT_TIMEOUT_S={bound}s" in error
            stats = c.stats()
            assert stats["in_flight"] == 0
            assert stats["counters"]["errors"] == 1

            monkeypatch.undo()
            retry = c.cells([spec])
        assert retry["serve"]["led"] == 1
        assert retry["results"][0]["cpi"] > 0


class TestCoalescing:
    def test_16_concurrent_identical_batches_one_simulation(self,
                                                            tmp_path):
        """The acceptance criterion, scheduler-level: 16 threads ask
        for the same cold cell; exactly one simulation runs and every
        caller gets byte-identical text."""
        cell = stream_cell("imul", ILP.MAX, 1, horizon_ticks=H)
        s = _scheduler(tmp_path)
        texts = [None] * 16
        gate = threading.Barrier(16)

        def request(i):
            gate.wait()
            out, _ = s.fetch([cell])
            texts[i] = out[0]

        try:
            ts = [threading.Thread(target=request, args=(i,))
                  for i in range(16)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(120)
            snap = s.counters.snapshot()
            assert snap["simulations"] == 1
            assert snap["led"] == 1
            assert snap["coalesced"] + snap["warm_hits"] == 15
            assert len(set(texts)) == 1 and texts[0] is not None
        finally:
            s.close()


class TestStoreFilledBeforeTheClaim:
    def test_cell_published_after_the_probe_is_served_from_the_store(
            self, tmp_path, monkeypatch):
        """A request that misses the store, then claims the flight only
        after another leader published the cell and landed its flight,
        must serve the published payload — not lead a second
        simulation of the same cell."""
        cells = _cells(names=("iadd",))
        key = cells[0].key()
        donor = ResultCache(tmp_path / "donor")
        SweepEngine(cache=donor).run(cells)
        entry = donor.get(key)
        assert entry is not None

        s = _scheduler(tmp_path)
        begin_many = s._flights.begin_many

        def publish_then_claim(keys):
            s.cache.put(key, entry)       # the other leader lands here
            return begin_many(keys)

        monkeypatch.setattr(s._flights, "begin_many", publish_then_claim)
        try:
            texts, outcome = s.fetch(cells)
            snap = s.counters.snapshot()
            assert json.loads(texts[0]) == entry["result"]
            assert snap["simulations"] == 0
            assert snap["pool_dispatches"] == 0
            assert outcome.led == 0
            assert outcome.warm_hits == 1 and outcome.misses == 0
            assert s._flights.in_flight() == 0
        finally:
            s.close()
