"""The differential oracle: simulated results vs. static intervals."""

import dataclasses
import json

import pytest

from repro.check.findings import Severity
from repro.common.errors import ModelViolation
from repro.core.streams import StreamCPIResult
from repro.cpu.config import CoreConfig, OpTiming
from repro.isa.opcodes import Op
from repro.isa.streams import ILP
from repro.model import oracle_cells, validate_cells
from repro.model.oracle import cpi_margin
from repro.model.bounds import stream_bounds
from repro.sweep import SweepEngine
from repro.sweep import engine as engine_mod
from repro.sweep.cells import SweepCell, pair_cell, runner_for, stream_cell


def _result(cell, cpi, instrs=10_000):
    c = cell.config
    return StreamCPIResult(
        stream=c["stream"], ilp=ILP[c["ilp"]], threads=c["threads"],
        cpi=cpi, cumulative_ipc=c["threads"] / cpi,
        cycles=int(cpi * instrs), instrs_per_thread=instrs)


class TestValidateCells:
    def test_contained_result_is_silent(self):
        cell = stream_cell("fadd", ILP.MIN, 1)
        assert validate_cells([cell], [_result(cell, 4.0)]) == []

    def test_impossibly_fast_result_is_an_error(self):
        cell = stream_cell("fadd", ILP.MIN, 1)
        findings = validate_cells([cell], [_result(cell, 0.5)])
        assert len(findings) == 1
        f = findings[0]
        assert f.check == "model" and f.severity is Severity.ERROR
        assert "below lower" in f.message
        assert f.data["contained"] is False

    def test_impossibly_slow_result_is_an_error(self):
        cell = stream_cell("iadd", ILP.MAX, 1)
        findings = validate_cells([cell], [_result(cell, 50.0)])
        assert len(findings) == 1
        assert "above upper" in findings[0].message

    def test_none_results_are_skipped(self):
        cell = stream_cell("fadd", ILP.MIN, 1)
        assert validate_cells([cell], [None]) == []

    def test_unknown_cell_kind_is_skipped(self):
        cell = SweepCell(kind="exotic", config={})
        assert validate_cells([cell], [object()]) == []

    def test_pair_utilization_law(self):
        # Two fdiv streams at CPI 1.0 would need the single divider to
        # initiate 76-tick operations ~38x faster than it can.
        cell = pair_cell("fdiv", "fdiv", ILP.MAX)
        findings = validate_cells([cell], [(1.0, 1.0)])
        assert any("issue bandwidth" in f.message for f in findings)
        assert any(f.data.get("unit") == "fpdiv" for f in findings
                   if "utilization" in f.data)


class TestOracleCells:
    def test_raises_with_actionable_message(self):
        cell = stream_cell("fadd", ILP.MIN, 1)
        with pytest.raises(ModelViolation, match="repro model"):
            oracle_cells([cell], [_result(cell, 0.5)])

    def test_silent_on_contained_results(self):
        cell = stream_cell("fadd", ILP.MIN, 1)
        oracle_cells([cell], [_result(cell, 4.0)])


class TestEngineHook:
    """The sweep engine runs the oracle after every sweep."""

    def test_live_sweep_passes_the_oracle(self):
        engine = SweepEngine(jobs=1)
        cells = [stream_cell("iadd", ILP.MAX, t, horizon_ticks=20_000)
                 for t in (1, 2)]
        results = engine.run(cells)
        assert len(results) == 2

    def test_oracle_off_skips_validation(self, monkeypatch):
        def boom(cells, results):
            raise AssertionError("oracle ran despite check=False")

        monkeypatch.setattr("repro.model.oracle.oracle_cells", boom)
        engine = SweepEngine(jobs=1, check=False)
        engine.run([stream_cell("iadd", ILP.MAX, 1, horizon_ticks=20_000)])

    def test_mistimed_optiming_fixture_is_caught(self, monkeypatch):
        """A simulator that ignores the cell's declared OpTiming is a
        regression the oracle must catch: the cell claims FADD takes
        80 ticks, the (sabotaged) execution uses the default 8."""
        cfg = CoreConfig()
        slowed = dict(cfg.timings)
        slowed[Op.FADD] = OpTiming(80, 40)
        slow_cfg = dataclasses.replace(cfg, timings=slowed)

        def ignore_declared_config(cell):
            stripped = SweepCell(kind=cell.kind, config=cell.config)
            runner = runner_for(cell.kind)
            return json.dumps(runner.encode(runner.run(stripped)))

        monkeypatch.setattr(engine_mod, "_execute_cell",
                            ignore_declared_config)
        engine = SweepEngine(jobs=1)
        cell = stream_cell("fadd", ILP.MIN, 1, horizon_ticks=40_000,
                           core_config=slow_cfg)
        with pytest.raises(ModelViolation, match="below lower"):
            engine.run([cell])


class TestMargins:
    def test_cpi_margin_record(self):
        bound = stream_bounds("fadd", ilp=ILP.MIN)
        m = cpi_margin(bound, 4.0)
        assert m["contained"] is True
        assert m["measured_cpi"] == pytest.approx(4.0)
        assert m["margin_lower"] == pytest.approx(4.0 - bound.lower, abs=1e-6)
        assert m["margin_upper"] == pytest.approx(bound.upper - 4.0, abs=1e-6)
        assert m["binding"] == bound.binding
