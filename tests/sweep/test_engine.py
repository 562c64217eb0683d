"""Sweep-engine behaviour: ordering, caching, parallel fan-out, errors."""

import json

import pytest

from repro.common.errors import CacheError, ConfigError
from repro.isa.streams import ILP
from repro.sweep import ResultCache, SweepEngine, runner_for, stream_cell

#: A tick horizon small enough to keep each cell ~50 ms while still
#: reaching the post-warm-up steady-state marker for arithmetic streams.
H = 8_000


def _cells():
    return [stream_cell(name, ilp, threads, horizon_ticks=H)
            for name in ("iadd", "fadd")
            for threads in (1, 2)
            for ilp in (ILP.MIN, ILP.MAX)]


def _sig(results):
    return [(r.stream, r.ilp, r.threads, r.cpi) for r in results]


class TestOrderingAndParallelism:
    def test_results_arrive_in_cell_order(self):
        results = SweepEngine().run(_cells())
        assert [(r.stream, r.ilp, r.threads) for r in results] == [
            (c.config["stream"], ILP[c.config["ilp"]], c.config["threads"])
            for c in _cells()
        ]

    def test_parallel_matches_serial(self):
        serial = SweepEngine(jobs=1).run(_cells())
        parallel = SweepEngine(jobs=4).run(_cells())
        assert _sig(serial) == _sig(parallel)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            SweepEngine(jobs=0)
        with pytest.raises(ConfigError):
            SweepEngine(jobs=-2)


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        cells = _cells()
        cold = SweepEngine(cache=ResultCache(tmp_path))
        first = cold.run(cells)
        assert (cold.stats.hits, cold.stats.misses) == (0, len(cells))

        warm = SweepEngine(cache=ResultCache(tmp_path))
        second = warm.run(cells)
        assert (warm.stats.hits, warm.stats.misses) == (len(cells), 0)
        assert warm.stats.hit_rate == 1.0
        assert _sig(first) == _sig(second)

    def test_fresh_recomputes_and_rewrites(self, tmp_path):
        cells = _cells()[:2]
        SweepEngine(cache=ResultCache(tmp_path)).run(cells)
        fresh = SweepEngine(cache=ResultCache(tmp_path), fresh=True)
        fresh.run(cells)
        assert (fresh.stats.hits, fresh.stats.misses) == (0, len(cells))
        warm = SweepEngine(cache=ResultCache(tmp_path))
        warm.run(cells)
        assert warm.stats.hits == len(cells)

    def test_partial_warmth_recomputes_only_misses(self, tmp_path):
        cells = _cells()
        SweepEngine(cache=ResultCache(tmp_path)).run(cells[:3])
        engine = SweepEngine(cache=ResultCache(tmp_path))
        engine.run(cells)
        assert (engine.stats.hits, engine.stats.misses) == (3, len(cells) - 3)

    def test_corrupt_entry_recomputes_with_warning(self, tmp_path):
        cells = _cells()[:2]
        cache = ResultCache(tmp_path)
        clean = SweepEngine(cache=cache).run(cells)

        victim = cache._path(cells[0].key())
        victim.write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="corrupt sweep-cache entry"):
            engine = SweepEngine(cache=ResultCache(tmp_path))
            repaired = engine.run(cells)
        assert (engine.stats.hits, engine.stats.misses) == (1, 1)
        assert _sig(repaired) == _sig(clean)

        # The recompute overwrote the corrupt entry.
        healed = SweepEngine(cache=ResultCache(tmp_path))
        healed.run(cells)
        assert healed.stats.hits == len(cells)

    def test_malformed_entry_recomputes_with_warning(self, tmp_path):
        cells = _cells()[:1]
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run(cells)
        cache._path(cells[0].key()).write_text(json.dumps({"result": 7}))
        with pytest.warns(RuntimeWarning, match="malformed sweep-cache"):
            engine = SweepEngine(cache=ResultCache(tmp_path))
            engine.run(cells)
        assert engine.stats.misses == 1

    def test_cache_entry_layout(self, tmp_path):
        cells = _cells()[:1]
        cache = ResultCache(tmp_path)
        SweepEngine(cache=cache).run(cells)
        entry = cache.get(cells[0].key())
        assert entry["kind"] == "stream-cpi"
        assert entry["config"]["stream"] == "iadd"
        assert isinstance(entry["result"]["cpi"], float)
        assert len(cache) == 1


class TestCacheErrors:
    def test_uncreatable_cache_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(CacheError, match="cannot create cache dir"):
            ResultCache(blocker / "cache")

    def test_unknown_cell_kind(self):
        with pytest.raises(ConfigError, match="unknown sweep-cell kind"):
            runner_for("bogus-kind")


class TestStatsAccounting:
    """Hit/miss totals count only measurements that stand; rejected
    batches land in their own counters, and phase/fastpath accounting
    rides along on every run."""

    def test_phase_wall_covers_the_whole_lifecycle(self):
        engine = SweepEngine(check=False)
        engine.run(_cells()[:2])
        assert set(engine.stats.phase_wall_s) == {
            "preflight", "probe", "execute", "store", "oracle"}
        assert all(w >= 0.0 for w in engine.stats.phase_wall_s.values())
        # Phases accumulate across an engine's batches.
        before = engine.stats.phase_wall_s["execute"]
        engine.run(_cells()[2:4])
        assert engine.stats.phase_wall_s["execute"] >= before

    def test_fastpath_counters_merged_per_simulated_cell(self):
        engine = SweepEngine(check=False)
        engine.run(_cells()[:3])
        fp = engine.stats.fastpath
        assert fp["runs"] == 3
        assert fp["ticks_total"] == 3 * H

    def test_preflight_rejection_is_not_a_cache_outcome(self, monkeypatch):
        from repro.common.errors import CheckError

        def boom(cells):
            raise CheckError("rejected by test")

        monkeypatch.setattr("repro.check.preflight.preflight_cells", boom)
        engine = SweepEngine()
        with pytest.raises(CheckError):
            engine.run(_cells())
        assert engine.stats.preflight_rejected == len(_cells())
        assert (engine.stats.cells, engine.stats.hits,
                engine.stats.misses) == (0, 0, 0)

    def test_pair_cert_rejection_lands_in_its_own_counter(
            self, monkeypatch):
        """The bugfix regression: a compose-pass rejection must land in
        ``pair_cert_rejected`` — not in ``preflight_rejected``, and
        never in the cache hit/miss totals."""
        from repro.common.errors import CheckError

        def boom(cells):
            raise CheckError("forged pair certificate", check="compose")

        monkeypatch.setattr("repro.check.preflight.preflight_cells", boom)
        engine = SweepEngine()
        with pytest.raises(CheckError):
            engine.run(_cells())
        assert engine.stats.pair_cert_rejected == len(_cells())
        assert engine.stats.preflight_rejected == 0
        assert (engine.stats.cells, engine.stats.hits,
                engine.stats.misses) == (0, 0, 0)

    def test_rejection_surfaces_in_telemetry_cell_end(
            self, monkeypatch, tmp_path):
        """The synthetic terminal event names the rejecting pass, so
        the live view can show *why* the sweep died."""
        from repro.common.errors import CheckError
        from repro.telemetry import TelemetryBus, read_events

        def boom(cells):
            raise CheckError("forged pair certificate", check="compose")

        monkeypatch.setattr("repro.check.preflight.preflight_cells", boom)
        log = tmp_path / "sweep.jsonl"
        cells = _cells()
        with TelemetryBus(str(log)) as bus:
            engine = SweepEngine(telemetry=bus)
            with pytest.raises(CheckError):
                engine.run(cells)
        ends = [e for e in read_events(str(log), validate=True)
                if e["ev"] == "cell-end"]
        assert len(ends) == 1
        assert ends[0]["idx"] == -1 and ends[0]["cell"] == "preflight"
        assert ends[0]["rejected"] == len(cells)
        assert ends[0]["check"] == "compose"
        assert ends[0]["fastpath"] == {}

    def test_oracle_failure_voids_the_batch_accounting(self, monkeypatch):
        from repro.common.errors import CheckError

        def boom(cells, results):
            raise CheckError("violated by test")

        monkeypatch.setattr("repro.model.oracle.oracle_cells", boom)
        engine = SweepEngine()
        with pytest.raises(CheckError):
            engine.run(_cells()[:2])
        assert engine.stats.oracle_failed == 2
        assert engine.stats.cells == 0

    def test_to_dict_carries_the_new_fields(self):
        engine = SweepEngine(check=False)
        engine.run(_cells()[:1])
        snap = engine.stats.to_dict()
        assert snap["preflight_rejected"] == 0
        assert snap["pair_cert_rejected"] == 0
        assert snap["oracle_failed"] == 0
        assert list(snap["phase_wall_s"]) == sorted(snap["phase_wall_s"])
        assert snap["fastpath"]["runs"] == 1
