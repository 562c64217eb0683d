"""The sweep engine's fail-fast pre-flight (passes 1-4 over cells)."""

import pytest

from repro.check import preflight_cells
from repro.common.errors import CheckError
from repro.isa.streams import ILP
from repro.sweep.cache import ResultCache
from repro.sweep.cells import SweepCell, app_cell, stream_cell, table1_cell
from repro.sweep.engine import SweepEngine
from repro.workloads.common import Variant


def cache_entries(cache_dir):
    return list((cache_dir / "objects").rglob("*.json"))


class TestPreflightCells:
    def test_clean_stream_cells_pass(self):
        cells = [stream_cell("iadd", ILP.MAX, threads=1),
                 stream_cell("fdiv", ILP.MIN, threads=2)]
        preflight_cells(cells)  # must not raise

    def test_unknown_stream_rejected(self):
        cell = SweepCell(kind="stream-cpi",
                         config={"stream": "bogus", "ilp": "MAX"})
        with pytest.raises(CheckError) as exc:
            preflight_cells([cell])
        assert "bogus" in str(exc.value)
        assert "nothing was simulated or cached" in str(exc.value)

    def test_stale_stream_recipe_rejected(self):
        cell = stream_cell("iadd", ILP.MAX, threads=1)
        cell.config["recipe"] = {"ops": ["FADD"], "stride": 1}
        with pytest.raises(CheckError) as exc:
            preflight_cells([cell])
        assert "different recipe" in str(exc.value)

    def test_stale_workload_fingerprint_rejected(self):
        cell = app_cell("mm", Variant.TLP_COARSE, {"n": 16})
        cell.config["workload_sha"] = "0" * 16
        with pytest.raises(CheckError) as exc:
            preflight_cells([cell])
        assert "fingerprint" in str(exc.value)

    def test_stale_table1_fingerprint_rejected(self):
        cell = table1_cell("mm", "column", {"n": 16})
        cell.config["workload_sha"] = "0" * 16
        with pytest.raises(CheckError):
            preflight_cells([cell])

    def test_clean_app_cell_passes(self):
        preflight_cells([app_cell("mm", Variant.TLP_COARSE, {"n": 16})])

    def test_clean_pair_cell_passes(self):
        from repro.sweep.cells import pair_cell

        preflight_cells([pair_cell("fload", "iload", ILP.MAX)])

    def test_poisoned_pair_certificate_rejected_as_compose(
            self, monkeypatch):
        """The gate validates the exact memoized certificate the
        runtime will attach — a poisoned cache entry cannot slip past —
        and tags the rejection with the compose pass so the engine can
        account it separately."""
        import dataclasses

        from repro.check import compose as _compose
        from repro.sweep.cells import pair_cell

        forged = dataclasses.replace(
            _compose.compose_pair("fload", "iload"), joint_period_pos=7)
        monkeypatch.setattr(
            _compose, "cached_pair_certificate",
            lambda *a, **kw: forged)
        with pytest.raises(CheckError) as exc:
            preflight_cells([pair_cell("fload", "iload", ILP.MAX)])
        assert exc.value.check == "compose"
        assert "machine check" in str(exc.value)

    def test_error_mentions_no_check_escape_hatch(self):
        cell = SweepCell(kind="stream-cpi",
                         config={"stream": "bogus", "ilp": "MAX"})
        with pytest.raises(CheckError) as exc:
            preflight_cells([cell])
        assert "--no-check" in str(exc.value)


class TestEnginePreflight:
    def test_broken_cell_rejected_before_simulation_or_cache(self, tmp_path):
        """The acceptance criterion: a broken cell must leave no cache
        entry and reach no runner."""
        cache_dir = tmp_path / "cache"
        engine = SweepEngine(cache=ResultCache(cache_dir))
        good = stream_cell("iadd", ILP.MAX, threads=1)
        bad = stream_cell("iadd", ILP.MIN, threads=1)
        bad.config["recipe"] = {"ops": ["FADD"], "stride": 1}
        with pytest.raises(CheckError):
            engine.run([good, bad])
        assert cache_entries(cache_dir) == []
        assert engine.stats.misses == 0 and engine.stats.hits == 0

    def test_preflight_off_skips_the_gate(self, tmp_path):
        """--no-check: the tampered recipe is a key ingredient only, so
        the cell simulates fine with pre-flight disabled — and the
        unchecked result is never published to the cache."""
        cache_dir = tmp_path / "cache"
        engine = SweepEngine(cache=ResultCache(cache_dir), check=False)
        cell = stream_cell("iadd", ILP.MAX, threads=1)
        cell.config["recipe"] = {"ops": ["FADD"], "stride": 1}
        results = engine.run([cell])
        assert len(results) == 1
        assert len(cache_entries(cache_dir)) == 0

    def test_empty_cell_list_is_fine(self):
        assert SweepEngine().run([]) == []


class TestCLIPlumbing:
    def test_no_check_flag_accepted(self, capsys):
        from repro.cli import main

        assert main(["table1", "--no-cache", "--no-check"]) == 0
        assert "mm" in capsys.readouterr().out
