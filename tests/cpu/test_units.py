"""Tests for execution units and routing."""

import pytest

from repro.cpu import CoreConfig, UnitPool
from repro.cpu.units import ROUTES, UNIT_NAMES
from repro.isa import Op


@pytest.fixture
def pool():
    return UnitPool(CoreConfig())


class TestRouting:
    def test_every_opcode_routed(self):
        assert set(ROUTES) == set(Op)

    def test_logical_only_on_alu0(self):
        assert ROUTES[Op.ILOGIC] == ("alu0",)

    def test_fp_share_one_unit(self):
        for op in (Op.FADD, Op.FMUL, Op.IMUL):
            assert ROUTES[op] == ("fpexec",)

    def test_divides_use_the_divider(self):
        for op in (Op.FDIV, Op.IDIV):
            assert ROUTES[op] == ("fpdiv",)

    def test_int_add_uses_both_alus(self):
        assert set(ROUTES[Op.IADD]) == {"alu0", "alu1"}


class TestIssue:
    def test_pipelined_unit_accepts_every_interval(self, pool):
        ok1, c1 = pool.try_issue(int(Op.FADD), 0)
        assert ok1 and c1 == 8  # 4-cycle latency
        ok2, _ = pool.try_issue(int(Op.FADD), 1)
        assert not ok2  # initiation interval is 2 ticks
        ok3, _ = pool.try_issue(int(Op.FADD), 2)
        assert ok3

    def test_non_pipelined_divider_blocks_for_latency(self, pool):
        ok, comp = pool.try_issue(int(Op.FDIV), 0)
        assert ok and comp == 76
        assert not pool.try_issue(int(Op.FDIV), 75)[0]
        assert pool.try_issue(int(Op.FDIV), 76)[0]

    def test_divider_does_not_block_other_fp(self, pool):
        """fadd issues around an in-flight divide (min-ILP coexistence)."""
        pool.try_issue(int(Op.FDIV), 0)
        assert pool.try_issue(int(Op.FADD), 10)[0]

    def test_two_iadds_per_tick_via_two_alus(self, pool):
        assert pool.try_issue(int(Op.IADD), 0)[0]
        assert pool.try_issue(int(Op.IADD), 0)[0]
        assert not pool.try_issue(int(Op.IADD), 0)[0]  # both ALUs busy

    def test_logical_pair_serializes_on_alu0(self, pool):
        assert pool.try_issue(int(Op.ILOGIC), 0)[0]
        assert not pool.try_issue(int(Op.ILOGIC), 0)[0]
        assert not pool.try_issue(int(Op.ILOGIC), 1)[0]
        assert pool.try_issue(int(Op.ILOGIC), 2)[0]

    def test_loads_and_alu_independent(self, pool):
        assert pool.try_issue(int(Op.FLOAD), 0)[0]
        assert pool.try_issue(int(Op.IADD), 0)[0]

    def test_issue_counts(self, pool):
        pool.try_issue(int(Op.IADD), 0)
        pool.try_issue(int(Op.ILOGIC), 0)
        # IADD prefers ALU1, so ALU0 was free for the logical op.
        assert pool.issue_counts["alu1"] == 1
        assert pool.issue_counts["alu0"] == 1

    def test_reset(self, pool):
        pool.try_issue(int(Op.FDIV), 0)
        pool.reset()
        assert pool.try_issue(int(Op.FADD), 0)[0]
        assert pool.issue_counts["fpexec"] == 1


class TestUnitChoiceAndSwitch:
    """``UnitPool.try_issue``'s unit choice and thread-switch penalty."""

    def test_prefers_a_free_unit_this_thread_used_last(self, pool):
        assert pool.try_issue(int(Op.ILOGIC), 0, tid=1)[0]   # alu0 <- T1
        assert pool.try_issue(int(Op.IADD), 0, tid=0)[0]     # alu1 <- T0
        # At tick 2 both ALUs are free; IADD's route lists alu1 first,
        # but T1 last used alu0, so it goes there without a switch.
        ok, comp = pool.try_issue(int(Op.IADD), 2, tid=1)
        assert ok and comp == 2 + pool.config.timings[Op.IADD].latency
        assert pool.units["alu0"].last_tid == 1
        assert pool.units["alu0"].next_free == 3
        assert pool.units["alu1"].next_free == 1

    def test_falls_back_to_route_order(self, pool):
        assert pool.try_issue(int(Op.IADD), 0, tid=0)[0]
        assert pool.units["alu1"].last_tid == 0
        assert pool.units["alu0"].last_tid == -1

    def test_switching_a_busy_unit_costs_part_of_the_interval(self, pool):
        timing = pool.config.timings[Op.FMUL]
        penalty = int(timing.interval * pool.config.unit_switch_penalty)
        assert penalty > 0
        assert pool.try_issue(int(Op.FMUL), 0, tid=0)[0]
        fpexec = pool.units["fpexec"]
        free = fpexec.next_free
        assert free == timing.interval
        # T1 takes the unit the first tick it is free, while T0's op is
        # still inside its last interval: the switch drains the pipe.
        ok, comp = pool.try_issue(int(Op.FMUL), free, tid=1)
        assert ok and comp == free + timing.latency + penalty
        assert fpexec.next_free == free + timing.interval + penalty
        assert fpexec.last_tid == 1

    def test_last_busy_tick_still_pays(self, pool):
        timing = pool.config.timings[Op.FMUL]
        penalty = int(timing.interval * pool.config.unit_switch_penalty)
        pool.try_issue(int(Op.FMUL), 0, tid=0)
        late = 2 * timing.interval - 1
        ok, comp = pool.try_issue(int(Op.FMUL), late, tid=1)
        assert ok and comp == late + timing.latency + penalty

    def test_idle_unit_switches_for_free(self, pool):
        timing = pool.config.timings[Op.FMUL]
        pool.try_issue(int(Op.FMUL), 0, tid=0)
        idle = 2 * timing.interval
        ok, comp = pool.try_issue(int(Op.FMUL), idle, tid=1)
        assert ok and comp == idle + timing.latency
        assert pool.units["fpexec"].next_free == idle + timing.interval

    def test_same_thread_never_pays(self, pool):
        timing = pool.config.timings[Op.FMUL]
        pool.try_issue(int(Op.FMUL), 0, tid=1)
        ok, comp = pool.try_issue(int(Op.FMUL), timing.interval, tid=1)
        assert ok and comp == timing.interval + timing.latency

    def test_issue_counts_charge_the_chosen_unit(self, pool):
        pool.try_issue(int(Op.ILOGIC), 0, tid=1)             # alu0
        pool.try_issue(int(Op.IADD), 0, tid=0)               # alu1
        pool.try_issue(int(Op.IADD), 2, tid=1)               # alu0, preferred
        assert not pool.try_issue(int(Op.ILOGIC), 2, tid=0)[0]  # alu0 busy
        assert pool.issue_counts == {
            name: {"alu0": 2, "alu1": 1}.get(name, 0) for name in UNIT_NAMES}
