"""CellScheduler behaviour: warm path, cold path, cache interop,
oracle rejection, preflight rejection, leader-failure flight landing,
a worker killed mid-cell (leader and joiners), close() with a cell
running, ENOSPC on publish, concurrent coalescing."""

import errno
import json
import os
import signal
import threading
import time

import pytest

from repro.common.errors import CheckError, ConfigError, WorkerLost
from repro.isa.streams import ILP
from repro.serve.client import ServeError
from repro.serve.scheduler import CellScheduler
from repro.sweep import ResultCache, SweepEngine, runner_for, stream_cell
from repro.sweep import cache as cache_mod
from repro.sweep import engine as engine_mod
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


#: Paths the worker stand-ins below coordinate through.  A test sets
#: them before the executor forks, so its workers inherit them.
_WORKER_FILES = {"release": "", "pid": ""}


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _kill_own_worker(task):
    """Pool task stand-in: the worker dies mid-cell, losing the task."""
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_own_worker_on_release(task):
    """Like :func:`_kill_own_worker`, once the release file exists."""
    _wait_for(lambda: os.path.exists(_WORKER_FILES["release"]), 30.0)
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_in_worker(task):
    """Pool task stand-in: a cell that runs far longer than any test."""
    with open(_WORKER_FILES["pid"], "w") as fp:
        fp.write(str(os.getpid()))
    time.sleep(30)


def _spec(cell):
    return {"kind": cell.kind, "config": cell.config}


class TestDeadWorker:
    def test_killed_worker_fails_in_bounded_time_and_frees_the_key(
            self, tmp_path, monkeypatch, daemon_factory):
        """A worker killed mid-cell breaks the executor at once: the
        request fails as a counted 500 naming the lost cell, without
        waiting out FLIGHT_TIMEOUT_S, and the key is immediately
        retryable on a fresh executor."""
        monkeypatch.setattr(engine_mod, "_execute_task", _kill_own_worker)
        d = daemon_factory(cache_dir=str(tmp_path), telemetry=False)
        cell = _cells(names=("iadd",))[0]
        with d.client() as c:
            t0 = time.monotonic()
            with pytest.raises(ServeError) as exc:
                c.cells([_spec(cell)])
            assert time.monotonic() - t0 < 10.0
            assert exc.value.status == 500
            error = exc.value.payload["error"]
            assert error.startswith("WorkerLost: ")
            assert cell_label(cell) in error
            stats = c.stats()
            assert stats["in_flight"] == 0
            assert stats["counters"]["errors"] == 1
            # The broken executor was dropped, not restarted behind the
            # caller's back.
            assert stats["pool_live"] is False

            monkeypatch.undo()
            retry = c.cells([_spec(cell)])
            assert c.stats()["pool_live"] is True
        assert retry["serve"]["led"] == 1
        assert retry["results"][0]["cpi"] > 0

    def test_joiners_of_a_lost_cell_fail_with_its_leader(
            self, tmp_path, monkeypatch, daemon_factory):
        """Two concurrent requests for one cold cell whose worker dies:
        the leader and its joiner both get the WorkerLost 500 at once,
        the key is free, and the next request leads the cell on a
        rebuilt executor."""
        release = tmp_path / "release"
        monkeypatch.setitem(_WORKER_FILES, "release", str(release))
        monkeypatch.setattr(engine_mod, "_execute_task",
                            _kill_own_worker_on_release)
        d = daemon_factory(cache_dir=str(tmp_path / "cache"),
                           telemetry=False)
        cell = _cells(names=("iadd",))[0]
        flights = d.scheduler._flights
        errors = [None, None]

        def request(i):
            with d.client() as c:
                try:
                    c.cells([_spec(cell)])
                except ServeError as e:
                    errors[i] = e

        t0 = time.monotonic()
        threads = [threading.Thread(target=request, args=(i,))
                   for i in range(2)]
        threads[0].start()
        _wait_for(lambda: flights.in_flight() == 1)
        threads[1].start()
        _wait_for(lambda: [f.joiners for f in flights._flights.values()]
                  == [1])
        release.touch()
        for t in threads:
            t.join(10)
        assert time.monotonic() - t0 < 10.0
        for e in errors:
            assert e is not None and e.status == 500
            assert e.payload["error"].startswith("WorkerLost: ")
            assert cell_label(cell) in e.payload["error"]
        with d.client() as c:
            stats = c.stats()
            assert stats["in_flight"] == 0
            assert stats["counters"]["errors"] == 2

            monkeypatch.undo()
            retry = c.cells([_spec(cell)])
            assert c.stats()["pool_live"] is True
        assert retry["serve"]["led"] == 1
        assert retry["results"][0]["cpi"] > 0


class TestLifecycle:
    def test_start_forks_every_worker_before_any_request(self, tmp_path):
        """The daemon forks its workers before it opens the socket, so
        start() must fork them, not merely build the executor."""
        s = _scheduler(tmp_path, jobs=2)
        try:
            s.start()
            assert len(s._pool._processes) == 2
        finally:
            s.close()

    def test_close_ends_a_running_cell_promptly(self, tmp_path,
                                                monkeypatch):
        """close() with a cell running (the daemon's shutdown path) ends
        the worker at once instead of waiting for the cell, and fails
        the cell's flight."""
        pid_file = tmp_path / "worker.pid"
        monkeypatch.setitem(_WORKER_FILES, "pid", str(pid_file))
        monkeypatch.setattr(engine_mod, "_execute_task", _hang_in_worker)
        s = _scheduler(tmp_path)
        s.start()
        failures = []

        def request():
            try:
                s.fetch(_cells(names=("iadd",)))
            except Exception as e:  # noqa: BLE001 - recorded, asserted
                failures.append(e)

        t = threading.Thread(target=request)
        t.start()
        try:
            _wait_for(lambda: pid_file.exists() and pid_file.read_text())
            pid = int(pid_file.read_text())
        finally:
            t0 = time.monotonic()
            s.close()
            assert time.monotonic() - t0 < 5.0
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        t.join(10)
        assert not t.is_alive()
        assert len(failures) == 1 and isinstance(failures[0], WorkerLost)
        assert s._flights.in_flight() == 0


class TestPublishFailure:
    def test_enospc_on_publish_answers_and_wedges_nothing(
            self, tmp_path, monkeypatch, daemon_factory):
        """A full disk at publish costs the cache entry, not the
        request: the answer is the clean run's payload, the key is
        free, and what the store already held is still served warm."""
        warm, cold = _cells(names=("iadd", "fadd"))
        clean = daemon_factory(cache_dir=str(tmp_path / "clean"),
                               telemetry=False)
        with clean.client() as c:
            expected = json.dumps(c.cells([_spec(cold)])["results"])

        def no_space(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        d = daemon_factory(cache_dir=str(tmp_path / "cache"),
                           telemetry=False)
        with d.client() as c:
            stored = c.cells([_spec(warm)])["results"]
            monkeypatch.setattr(cache_mod.os, "fsync", no_space)
            with pytest.warns(RuntimeWarning,
                              match="cannot write sweep-cache entry"):
                answer = c.cells([_spec(cold)])
            assert json.dumps(answer["results"]) == expected
            assert answer["serve"]["led"] == 1
            assert c.stats()["in_flight"] == 0
            hit = c.cells([_spec(warm)])
            assert hit["serve"]["warm_hits"] == 1
            assert hit["results"] == stored

            monkeypatch.undo()
            again = c.cells([_spec(cold)])
            assert again["serve"]["misses"] == 1
            assert again["serve"]["led"] == 1
            assert json.dumps(again["results"]) == expected
            hit = c.cells([_spec(warm)])
            assert hit["serve"]["warm_hits"] == 1
            assert hit["results"] == stored


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
