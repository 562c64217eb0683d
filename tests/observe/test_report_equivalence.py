"""The report builder's exact-type dispatch returns what the generic
rules returned: equal values, in the same key order, for every driver
result type.

``_reference_jsonable``/``_reference_result_to_dict`` are the generic
conversion the dispatch short-cuts, kept here verbatim as the oracle.
"""

import dataclasses
import enum
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.apps import AppRunResult
from repro.core.coexec import CoexecResult
from repro.core.streams import StreamCPIResult
from repro.core.table1 import Table1Row
from repro.cpu.config import CoreConfig
from repro.cpu.core import CoreResult
from repro.isa.streams import ILP
from repro.mem.config import MemConfig
from repro.observe import report as report_mod
from repro.perfmon.events import Event
from repro.perfmon.monitor import PerfMonitor
from repro.workloads.common import Variant


def _reference_jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value if isinstance(value.value, (str, int)) else value.name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _reference_result_to_dict(value)
    if isinstance(value, dict):
        return {str(_reference_jsonable(k)): _reference_jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _reference_result_to_dict(result):
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        out = {}
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            if hasattr(value, "snapshot") and hasattr(value, "raw"):
                out[f.name] = {k: list(v) for k, v in value.snapshot().items()}
            else:
                out[f.name] = _reference_jsonable(value)
        return out
    return {"value": _reference_jsonable(result)}


def _ordered(value):
    """``value`` with every dict turned into its (key, value) item list,
    so equality also checks key order and container types."""
    if isinstance(value, dict):
        return (type(value), [(_ordered(k), _ordered(v))
                              for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [_ordered(v) for v in value])
    if isinstance(value, float) and value != value:
        return (type(value), "nan")
    return (type(value), value)


class _Mode(enum.Enum):
    FLOATY = 1.5          # a non-str/int value: serialized by name


class _Level(enum.IntEnum):
    HIGH = 3


@dataclass
class _Nested:
    label: str
    inner: StreamCPIResult
    levels: tuple
    extras: dict
    numbers: list
    tags: frozenset = frozenset()


def _monitor():
    monitor = PerfMonitor(2)
    monitor.inc(Event.UOPS_RETIRED, 0, 120)
    monitor.inc(Event.UOPS_RETIRED, 1, 80)
    monitor.inc(Event.L2_READ_MISS, 1, 7)
    return monitor


_STREAM = StreamCPIResult(stream="fadd", ilp=ILP.MED, threads=2, cpi=4.25,
                          cumulative_ipc=0.47, cycles=2040.0,
                          instrs_per_thread=240)

RESULTS = {
    "stream": _STREAM,
    "coexec": CoexecResult(stream_a="fdiv", stream_b="iadd", ilp=ILP.MAX,
                           cpi_a=38.0, cpi_b=1.02, solo_cpi_a=37.9,
                           solo_cpi_b=0.5),
    "app": AppRunResult(app="lu", variant=Variant.TLP_COARSE,
                        size={"n": 32}, cycles=1.5e5, l2_misses=12,
                        l2_misses_total=20, l2_misses_worker=8,
                        stall_cycles=311, uops=90210,
                        uops_per_thread=(45000, 45210), reference_ok=True,
                        counters={"UOPS_RETIRED": (45000, 45210)},
                        wall_time_s=np.float64(0.125)),
    "table1": Table1Row(app="mm", column="tlp",
                        percentages={"ALU0": 31.5, "FP_ADD": 12.0},
                        total_instructions=65536),
    "core": CoreResult(ticks=4096, instrs=(100, 90), retired=(120, 80),
                       monitor=_monitor(),
                       unit_issue_counts={"alu0": 50, "fpexec": 3},
                       done_ticks=(4000, 4096)),
    "nested": _Nested(label="x", inner=_STREAM,
                      levels=((1, 2), (ILP.MIN, (_Level.HIGH,))),
                      extras={ILP.MAX: [np.int64(4)], 3: {"k": None},
                              _Mode.FLOATY: OrderedDict(b=1, a=2),
                              "nan": float("nan"), "neg": -0.0},
                      numbers=[np.float64(2.5), True, None, "s"],
                      tags=frozenset({"only"})),
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_result_to_dict_matches_reference(name):
    result = RESULTS[name]
    assert _ordered(report_mod.result_to_dict(result)) == _ordered(
        _reference_result_to_dict(result))


@pytest.mark.parametrize("value", [
    42, "s", None, 2.5, True, (1, [2, (3,)]), {1: {2: [3]}}, {"a", },
    _Mode.FLOATY, _Level.HIGH, Variant.SERIAL, np.float64(1.5),
    np.int64(7), StreamCPIResult, OrderedDict(z=1, a=ILP.MAX), b"raw",
])
def test_jsonable_matches_reference(value):
    assert _ordered(report_mod._jsonable(value)) == _ordered(
        _reference_jsonable(value))
    assert _ordered(report_mod.result_to_dict(value)) == _ordered(
        _reference_result_to_dict(value))


def test_build_report_matches_reference(monkeypatch):
    def build():
        return report_mod.build_report(
            "fig-x", list(RESULTS.values()), core_config=CoreConfig(),
            mem_config=MemConfig(), counters={"UOPS": (1, 2)},
            wall_time_s=0.5, sweep={"cells": 3, "jobs": (1,)},
            model={"margins": [{"stream": "fadd", "ilp": ILP.MAX}]},
            fastpath={"jumps": 0, "stand_downs": {"x": 1}},
            telemetry={"log": None}, extra={ILP.MIN: (1, 2)})

    fast = build()
    monkeypatch.setattr(report_mod, "_jsonable", _reference_jsonable)
    monkeypatch.setattr(report_mod, "result_to_dict",
                        _reference_result_to_dict)
    assert _ordered(fast) == _ordered(build())
