"""The static bounds are computed once per process and then looked up.

A bound is a pure function of its declared inputs (stream spec,
sibling, window, slack and the values of the core and memory configs),
so the memo may return it for any later call with equal inputs — and
must never return it for different ones.
"""

import dataclasses
import enum
from types import MappingProxyType, SimpleNamespace

import pytest

from repro.check import hazards
from repro.check.findings import Severity
from repro.common.errors import ConfigError
from repro.core.coexec import fig2_pairs
from repro.cpu.config import CoreConfig, OpTiming
from repro.isa.instr import Instr
from repro.isa.opcodes import Op
from repro.isa.streams import ILP, StreamSpec
from repro.mem.config import MemConfig
from repro.model import (
    MODEL_STREAMS,
    exclusive_demand,
    pair_bounds,
    stream_bounds,
    stream_model_findings,
)
from repro.model import bounds as bounds_mod
from repro.model import contention as contention_mod
from repro.model.bounds import clear_memo, config_key, default_keys


def _inventory():
    """Every bound ``repro model`` reports, as (label, thunk) pairs."""
    items = []
    for name in MODEL_STREAMS:
        for ilp in ILP:
            items.append((f"{name}/{ilp.name}/solo",
                          lambda n=name, i=ilp: stream_bounds(n, ilp=i)))
            items.append((f"{name}/{ilp.name}/dual",
                          lambda n=name, i=ilp: stream_bounds(
                              n, ilp=i, sibling=n)))
    for ilp in ILP:
        for a, b in fig2_pairs():
            items.append((f"{a}x{b}/{ilp.name}",
                          lambda a=a, b=b, i=ilp: pair_bounds(a, b, ilp=i)))
    return items


class TestMemoEqualsFreshDerivation:
    def test_whole_model_inventory(self):
        items = _inventory()
        clear_memo()
        # Fill the memo pairs first, so every solo and dual bound the
        # stream rows read was stored on the pair path.
        warm = {label: thunk() for label, thunk in reversed(items)}
        assert len(warm) == 66 + 117
        for label, thunk in items:
            assert thunk() is warm[label], label
        for label, thunk in items:
            clear_memo()
            fresh, memo = thunk(), warm[label]
            assert fresh is not memo
            assert fresh.to_dict() == memo.to_dict(), label
            if hasattr(memo, "demand_a"):
                assert dict(fresh.demand_a) == dict(memo.demand_a), label
                assert dict(fresh.demand_b) == dict(memo.demand_b), label

    def test_repeat_calls_share_one_value(self):
        assert stream_bounds("fadd") is stream_bounds(StreamSpec("fadd"))
        assert (stream_bounds("fmul", core_config=CoreConfig())
                is stream_bounds("fmul", core_config=CoreConfig()))
        assert (pair_bounds("fdiv", "fadd", ilp=ILP.MED)
                is pair_bounds("fdiv", "fadd", ilp=ILP.MED))
        assert exclusive_demand("fdiv", ILP.MAX) is exclusive_demand(
            "fdiv", ILP.MAX, CoreConfig())


class TestDefaultMachineLookups:
    def test_warm_default_lookup_builds_and_hashes_no_config(
            self, monkeypatch):
        warm = (stream_bounds("fadd", sibling="fadd"),
                pair_bounds("fdiv", "fadd"),
                exclusive_demand("fdiv", ILP.MAX))

        def forbidden(*args, **kwargs):
            raise AssertionError("a default lookup built or hashed a config")

        for owner in (bounds_mod, contention_mod):
            monkeypatch.setattr(owner, "CoreConfig", forbidden)
        monkeypatch.setattr(bounds_mod, "MemConfig", forbidden)
        monkeypatch.setattr(bounds_mod, "config_key", forbidden)
        again = (stream_bounds("fadd", sibling="fadd"),
                 pair_bounds("fdiv", "fadd"),
                 exclusive_demand("fdiv", ILP.MAX))
        assert all(a is b for a, b in zip(again, warm))

    def test_default_keys_are_the_default_configs_keys(self):
        assert default_keys() == (config_key(CoreConfig()),
                                  config_key(MemConfig()))

    def test_clear_memo_derives_them_again(self):
        before = default_keys()
        clear_memo()
        after = default_keys()
        assert after == before and after[0] is not before[0]


class TestKeysAreValues:
    def test_one_timing_apart_gives_distinct_bounds(self):
        base = CoreConfig()
        slowed = dataclasses.replace(
            base, timings={**base.timings, Op.FADD: OpTiming(80, 40)})
        fast = stream_bounds("fadd", ilp=ILP.MIN, core_config=base)
        slow = stream_bounds("fadd", ilp=ILP.MIN, core_config=slowed)
        assert slow.lower == pytest.approx(40.0 * 0.98)
        assert slow.lower > fast.upper
        assert (exclusive_demand("fadd", ILP.MIN, slowed)["fpexec"]
                > exclusive_demand("fadd", ILP.MIN, base)["fpexec"])

    def test_unified_queues_is_its_own_key(self):
        unified = CoreConfig.unified_queues()
        assert config_key(unified) != config_key(CoreConfig())
        shared = stream_bounds("iadd", core_config=CoreConfig())
        own = stream_bounds("iadd", core_config=unified)
        assert own is not shared
        # The model reads no queue policy, so the values agree.
        assert own.to_dict() == shared.to_dict()

    def test_config_mutated_between_calls_gets_a_fresh_bound(self):
        cfg = CoreConfig()
        before = stream_bounds("fadd", ilp=ILP.MIN, core_config=cfg)
        cfg.timings[Op.FADD] = OpTiming(80, 40)
        after = stream_bounds("fadd", ilp=ILP.MIN, core_config=cfg)
        assert after.lower == pytest.approx(40.0 * 0.98)
        assert after.lower > before.upper
        cfg.partitioned = False
        assert stream_bounds("fadd", ilp=ILP.MIN, core_config=cfg) \
            is not after

    def test_mem_config_mutated_between_calls_gets_a_fresh_bound(self):
        mem = MemConfig()
        before = stream_bounds("iload", mem_config=mem)
        mem.mem_latency *= 2
        after = stream_bounds("iload", mem_config=mem)
        assert after.upper > before.upper
        pb_before = pair_bounds("iload", "fload", mem_config=MemConfig())
        assert pair_bounds("iload", "fload", mem_config=mem).dual_a.upper \
            > pb_before.dual_a.upper


    def test_spec_count_and_stride_are_part_of_the_key(self):
        assert len(hazards.stream_shape(StreamSpec("fadd")).ops) == 240
        short = hazards.stream_shape(StreamSpec("fadd", count=12))
        assert len(short.ops) == 12
        # The shape ignores the stride; the bound's line rate does not.
        wide = StreamSpec("iload", stride=8)
        assert hazards.stream_shape(wide) is hazards.stream_shape(
            StreamSpec("iload"))
        assert stream_bounds(wide).upper > stream_bounds("iload").upper


class TestSharedValuesAreReadOnly:
    def test_term_tables_reject_mutation(self):
        b = stream_bounds("fdiv", ilp=ILP.MAX, sibling="fdiv")
        for table in (b.lower_terms, b.upper_terms):
            with pytest.raises(TypeError):
                table["raw-chain"] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.lower = 0.0

    def test_demand_tables_and_shapes_reject_mutation(self):
        pb = pair_bounds("fdiv", "fdiv")
        for table in (pb.demand_a, pb.demand_b,
                      exclusive_demand("fadd", ILP.MAX)):
            with pytest.raises(TypeError):
                table["fpdiv"] = 0.0
        shape = hazards.stream_shape(StreamSpec("fadd-mul"))
        with pytest.raises(TypeError):
            shape.mix[Op.FADD] = 1.0


class TestErrorsAreNotCached:
    def test_unknown_stream_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ConfigError, match="unknown stream"):
                stream_bounds("warp-drive")
            with pytest.raises(ConfigError, match="unknown sibling"):
                stream_bounds("fadd", sibling="warp-drive")

    def test_unknown_stream_finding_repeats(self):
        fake = SimpleNamespace(name="warp-drive", ilp=ILP.MAX)
        for _ in range(3):
            findings = stream_model_findings(fake)
            assert [f.severity for f in findings] == [Severity.ERROR]
            assert "cannot bound" in findings[0].message

    def test_missing_timing_raises_every_time_then_recovers(self):
        cfg = CoreConfig()
        timing = cfg.timings.pop(Op.FMUL)
        for _ in range(3):
            with pytest.raises(ConfigError, match="no OpTiming"):
                stream_bounds("fmul", core_config=cfg)
        cfg.timings[Op.FMUL] = timing
        assert (stream_bounds("fmul", core_config=cfg)
                is stream_bounds("fmul", core_config=CoreConfig()))


def _leaves(obj, seen=None):
    """Yield every leaf value reachable through the memo's containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (dict, MappingProxyType)):
        for k, v in obj.items():
            yield from _leaves(k, seen)
            yield from _leaves(v, seen)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _leaves(v, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), seen)
    else:
        yield obj


class TestMemoFootprint:
    def test_memos_hold_no_instr_objects(self):
        clear_memo()
        for _, thunk in _inventory():
            thunk()
        shapes = [hazards.stream_shape(StreamSpec(name, ilp=ilp))
                  for name in MODEL_STREAMS for ilp in ILP]
        assert hazards._shape.cache_info().currsize == len(shapes) == 33
        roots = [bounds_mod._MEMO, shapes]
        leaves = list(_leaves(roots))
        assert not [x for x in leaves if isinstance(x, Instr)]
        # Stronger: only plain values are kept — names, numbers, enum
        # members and the config-key tuples' OpTiming values.
        allowed = (str, int, float, type(None), enum.Enum)
        assert all(isinstance(x, allowed) for x in leaves), \
            {type(x).__name__ for x in leaves if not isinstance(x, allowed)}


class TestEveryConsumerReadsTheMemo:
    """Once warm, no consumer derives a bound, a demand table or a
    shape again: each reaches them through the memo."""

    def test_warm_consumers_derive_nothing(self, monkeypatch, capsys):
        from repro.analysis.expectations import check_model_containment
        from repro.check.compose import compose_pair
        from repro.check.targets import PairTarget, StreamTarget
        from repro.cli import main
        from repro.model.oracle import (
            fig1_model_section,
            fig2_model_section,
            validate_cells,
        )
        from repro.sweep.cells import pair_cell, stream_cell

        def mid(b):
            return (b.lower + b.upper) / 2.0

        def consumers():
            fadd = stream_bounds("fadd", ilp=ILP.MED, sibling="fadd")
            pb = pair_bounds("fdiv", "fadd", ilp=ILP.MAX)
            r1 = SimpleNamespace(stream="fadd", ilp=ILP.MED, threads=2,
                                 cpi=mid(fadd), instrs_per_thread=1e4)
            r2 = SimpleNamespace(stream_a="fdiv", stream_b="fadd",
                                 ilp=ILP.MAX, cpi_a=mid(pb.dual_a),
                                 cpi_b=mid(pb.dual_b))
            fig1_model_section([r1])
            fig2_model_section([r2])
            validate_cells(
                [stream_cell("fadd", ILP.MED, 2),
                 pair_cell("fdiv", "fadd", ILP.MAX)],
                [r1, (r2.cpi_a, r2.cpi_b)])
            assert all(e.holds for e in check_model_containment([r1]))
            StreamTarget(spec=StreamSpec("fadd", ilp=ILP.MED)).check()
            PairTarget(stream_a="fdiv", stream_b="fadd").check()
            cert = compose_pair("fdiv", "fadd", ilp=ILP.MAX)
            assert cert.shared_units == pb.shared_units
            assert main(["model", "--ilp", "max", "--json"]) == 0

        consumers()

        def boom(*args, **kwargs):
            raise AssertionError("derived again behind a warm memo")

        monkeypatch.setattr(bounds_mod, "_derive_bound", boom)
        monkeypatch.setattr(contention_mod, "_derive_pair", boom)
        monkeypatch.setattr(contention_mod, "_derive_demand", boom)
        monkeypatch.setattr(hazards, "unroll_stream", boom)
        consumers()
        capsys.readouterr()
