"""Stepping exactness of the issue stage at edges the figures never reach.

The issue stage visits only a per-thread ready list that completions
fill (``cpu/core.py``, "Issue stage").  Each case below pins the exact
outcome the window-rescanning issue stage produced — tick count,
retired µops, unit issue counts and a digest of every performance
counter — for a configuration the golden figures do not exercise:
same-tick wake-up, unified queues, a single logical CPU, two threads
blocked on one non-pipelined unit, HALT/PAUSE/IPI synchronization, and
the stall accountant.  Every run steps every tick (fast-forward off),
so the pins test the stepper alone.

The invariant test states what the ready list is: after every tick,
each thread's ``ready`` equals its waiting µops whose producers have
all completed, in age order.
"""

import hashlib
import json
import random

import pytest

from repro.cpu import CoreConfig, SMTCore
from repro.cpu.config import OpTiming
from repro.cpu.units import UNIT_NAMES
from repro.isa import F, Instr, Op, R
from repro.isa.streams import ILP, StreamSpec
from repro.isa.trace import compile_stream
from repro.mem import MemConfig, MemoryHierarchy
from repro.observe import CycleAccountant
from repro.perfmon import PerfMonitor
from repro.runtime.program import Program
from repro.workloads import WORKLOADS
from repro.workloads.common import Variant

# Far above every pinned run's length: a stepper that stops issuing
# fails with a DeadlockError instead of stepping for hours.
_MAX_TICKS = 500_000

_INT_OPS = (Op.IADD, Op.ISUB, Op.ILOGIC, Op.IMUL, Op.IDIV, Op.BRANCH)
_FP_OPS = (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMOVE)


def _mix(seed: int, n: int, base: int) -> list:
    """A seeded random program touching every unit and both register
    files, with short dependence chains and a small memory footprint
    (hits, misses and store-queue pressure)."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        r = rng.random()
        addr = base + 32 * rng.randrange(64)
        if r < 0.15:
            out.append(Instr.load(addr, dst=F(rng.randrange(6)),
                                  op=Op.FLOAD, site=1))
        elif r < 0.22:
            out.append(Instr.load(addr, dst=R(rng.randrange(6)),
                                  op=Op.ILOAD, srcs=(R(7),), site=2))
        elif r < 0.32:
            out.append(Instr.store(addr, src=F(rng.randrange(6)), site=3))
        elif r < 0.35:
            out.append(Instr(Op.PREFETCH, addr=addr + 4096, site=4))
        elif r < 0.37:
            out.append(Instr(Op.PAUSE, site=5))
        elif r < 0.40:
            out.append(Instr(Op.NOP, site=6))
        elif r < 0.70:
            op = rng.choice(_FP_OPS)
            out.append(Instr.arith(op, dst=F(rng.randrange(6)),
                                   src=F(rng.randrange(8)), site=7))
        else:
            op = rng.choice(_INT_OPS)
            dst = None if op is Op.BRANCH else R(rng.randrange(6))
            if dst is None:
                out.append(Instr(op, srcs=(R(rng.randrange(6)),), site=8))
            else:
                out.append(Instr.arith(op, dst=dst,
                                       src=R(rng.randrange(8)), site=8))
    return out


def _core(config=None, accountant=None) -> SMTCore:
    cfg = config or CoreConfig()
    mon = PerfMonitor(cfg.num_threads)
    hier = MemoryHierarchy(MemConfig(), mon, cfg.num_threads)
    return SMTCore(cfg, hier, mon, accountant=accountant, fastpath=False)


def _streams(config, *specs):
    prog = Program(core_config=config, fastpath=False)
    for i, spec in enumerate(specs):
        region = None
        if spec.is_memory:
            region = prog.aspace.alloc(f"v{i}", 4096, elem_size=1)
        trace = compile_stream(spec, region)
        prog.add_thread(lambda api, tr=trace: tr)
    return prog.run(max_ticks=_MAX_TICKS)


def _zero_latency_iadd():
    cfg = CoreConfig()
    cfg.timings[Op.IADD] = OpTiming(0, 1)
    return _streams(cfg, StreamSpec("iadd", ilp=ILP.MIN, count=3000),
                    StreamSpec("iadd", ilp=ILP.MED, count=3000))


def _zero_latency_mix():
    cfg = CoreConfig()
    cfg.timings[Op.IADD] = OpTiming(0, 1)
    cfg.timings[Op.ISUB] = OpTiming(0, 1)
    core = _core(cfg)
    core.add_thread(iter(_mix(11, 1500, 0x10000)))
    core.add_thread(iter(_mix(12, 1500, 0x20000)))
    return core.run(max_ticks=_MAX_TICKS)


def _unified():
    core = _core(CoreConfig.unified_queues())
    core.add_thread(iter(_mix(21, 2000, 0x10000)))
    core.add_thread(iter(_mix(22, 2000, 0x20000)))
    return core.run(max_ticks=_MAX_TICKS)


def _single_thread():
    core = _core(CoreConfig(num_threads=1))
    core.add_thread(iter(_mix(31, 2500, 0x10000)))
    return core.run(max_ticks=_MAX_TICKS)


def _fdiv_pair():
    return _streams(None, StreamSpec("fdiv", ilp=ILP.MAX, count=400),
                    StreamSpec("fdiv", ilp=ILP.MAX, count=400))


def _app(app, variant, **size):
    mem = MemConfig()
    build = WORKLOADS[app].build(variant, mem_config=mem, **size)
    prog = Program(mem_config=mem, aspace=build.aspace, fastpath=False)
    for factory in build.factories:
        prog.add_thread(factory)
    return prog.run(max_ticks=_MAX_TICKS)


def _accounted():
    acct = CycleAccountant()
    core = _core(accountant=acct)
    core.add_thread(iter(_mix(41, 1500, 0x10000)))
    core.add_thread(iter(_mix(42, 1500, 0x20000)))
    result = core.run(max_ticks=_MAX_TICKS)
    return result, acct


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _fingerprint(result) -> tuple:
    return (result.ticks, result.retired,
            tuple(result.unit_issue_counts[n] for n in UNIT_NAMES),
            _digest([list(row) for row in result.monitor.raw]))


CASES = {
    "zero-latency-iadd": _zero_latency_iadd,
    "zero-latency-mix": _zero_latency_mix,
    "unified-queues": _unified,
    "single-thread": _single_thread,
    "fdiv-fdiv": _fdiv_pair,
    # Spin barriers: PAUSE fetch gates and spin-exit flushes.
    "lu-tlp-coarse": lambda: _app("lu", Variant.TLP_COARSE, n=16),
    # Halt-mode barriers: HALT, IPI wake-up and partition release.
    "mm-tlp-pfetch": lambda: _app("mm", Variant.TLP_PFETCH, n=16),
}

# Recorded with the window-rescanning issue stage this replaced:
# (ticks, retired per thread, issues per unit in UNIT_NAMES order,
#  sha256 of the performance-counter matrix).
PINS = {
    "fdiv-fdiv": (72149, (400, 400), (0, 0, 0, 800, 0, 0, 0),
        "58ec35bb9d3bfb8d179554b86c013d5b39d85adb61285783c9981d06bb9ace53"),
    "lu-tlp-coarse": (20257, (11680, 4432), (5024, 1206, 2480, 120, 0, 5904, 1378),
        "bbaa513cfe3fc6280a269f3fdbabc1c793621d568913d19d43c32e1bd4a0e346"),
    "mm-tlp-pfetch": (32953, (34176, 1873), (10085, 826, 8192, 0, 0, 12821, 4125),
        "7c9cdbc2da990df87cad2da82221216d8f1455325701985e05bd0d79592e01e9"),
    "single-thread": (13023, (2500,), (388, 265, 576, 270, 153, 609, 239),
        "99dc18dabda5174d6b209dfce30829338bc208322c8c7c4285f333f7160b0945"),
    "unified-queues": (30507, (2000, 2000), (655, 355, 876, 499, 218, 993, 404),
        "417534630b1c662c00dc0c102f0c8aaaab017e08b80688873be3bd44d9da0b58"),
    "zero-latency-iadd": (4005, (3000, 3000), (2000, 4000, 0, 0, 0, 0, 0),
        "6e0201b00488f71be6959af0ceb54588ac6cfd7e865ca83b394f226e05aed966"),
    "zero-latency-mix": (19517, (1500, 1500), (481, 251, 676, 342, 190, 737, 323),
        "a571ec88a1fe0111cbdbd4ea42a4d06bdcaeb47bff29877cfddb10f9252b27f7"),
}
ACCOUNTED_PIN = (20075, (1500, 1500), (449, 268, 707, 342, 176, 739, 319),
                 "7b55aec3da3467f5862c1dc45d2c6228e91b08672cfc45417a0274f7e3d6d869",
                 "d06f83e0515d58ceeaf57bf621e9f1f3aec35ae05b3dd47e244e4afec81017cd")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stepping_matches_pin(name):
    assert _fingerprint(CASES[name]()) == PINS[name]


def test_accounted_stepping_matches_pin():
    result, acct = _accounted()
    got = _fingerprint(result) + (_digest(acct.to_dict()),)
    assert got == ACCOUNTED_PIN


def _expected_ready(th) -> list:
    return [u for u in th.waiting if all(d.completed for d in u.deps)]


def _assert_ready_invariant(core) -> None:
    for th in core.threads:
        assert th.ready == _expected_ready(th), core.tick


@pytest.mark.parametrize("config", [
    CoreConfig(), CoreConfig.unified_queues()], ids=["partitioned", "unified"])
def test_ready_list_invariant_every_tick(config):
    config.timings[Op.IADD] = OpTiming(0, 1)
    core = _core(config)
    core.add_thread(iter(_mix(51, 600, 0x10000)))
    core.add_thread(iter(_mix(52, 600, 0x20000)))
    for t in range(1, 20_000):
        result = core.run(stop_at_tick=t)
        _assert_ready_invariant(core)
        if all(th.done_tick >= 0 for th in core.threads):
            break
    assert sum(result.retired) == 1200


def test_ready_list_invariant_across_jumps():
    """A fast-forward jump moves µops in place and shifts their ``seq``
    uniformly per thread, so the ready list stays valid across it and
    stepping resumes from it."""
    prog = Program()
    for name in ("fadd", "iadd"):
        trace = compile_stream(StreamSpec(name, ilp=ILP.MED, count=1 << 30))
        prog.add_thread(lambda api, tr=trace: tr)
    prog.run(stop_at_tick=100_000)
    core = prog.core
    assert core._fp is not None and core._fp.jumps > 0
    _assert_ready_invariant(core)
    for t in range(100_001, 100_201):
        core.run(stop_at_tick=t)
        _assert_ready_invariant(core)
