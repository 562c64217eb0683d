"""Execution units and issue-port routing (paper Fig. 6).

Port 0 drives ALU0 (double speed) and the FP-move unit; port 1 drives
ALU1 (double speed) and the FP-execute unit; port 2 the load port; port 3
the store port.  Two properties matter for the paper's analysis and are
modelled exactly:

* **logical ops execute only on ALU0** — the cause of the MM TLP
  serialization (§5.3);
* there is a **single FP-execute unit**, so co-running FP streams from
  two threads contend for it (fig. 2), and the dividers are non-pipelined
  (the fdiv-fdiv 120-140% slowdown).
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.cpu.config import CoreConfig, OpTiming
from repro.isa.opcodes import Op


class ExecUnit:
    """One execution unit's issue state.

    ``next_free`` is the first tick the unit accepts another µop (the
    previous op's initiation interval has elapsed; a non-pipelined op
    simply has interval == latency), ``last_tid`` the thread it last
    issued for.  ``UnitPool.try_issue`` is the only code that changes
    them while stepping.
    """

    __slots__ = ("name", "next_free", "last_tid")

    def __init__(self, name: str):
        self.name = name
        self.next_free = 0
        self.last_tid = -1

    def reset(self) -> None:
        self.next_free = 0
        self.last_tid = -1


#: Which units may execute each opcode, in preference order.
ROUTES: dict[Op, tuple[str, ...]] = {
    Op.NOP: ("alu0", "alu1"),
    Op.IADD: ("alu1", "alu0"),   # prefer ALU1, keep ALU0 free for logicals
    Op.ISUB: ("alu1", "alu0"),
    Op.ILOGIC: ("alu0",),        # ALU0 only (paper §5.3)
    Op.BRANCH: ("alu0",),
    Op.IMUL: ("fpexec",),        # complex int ops use the FP unit on P4
    Op.IDIV: ("fpdiv",),
    Op.FADD: ("fpexec",),
    Op.FSUB: ("fpexec",),
    Op.FMUL: ("fpexec",),
    # The divider sits beside the FP pipe: a divide in flight does not
    # block fadd/fmul issue (the paper's min-ILP fadd x fdiv coexistence),
    # but two divide streams serialize on it (fdiv x fdiv, fig 2a).
    Op.FDIV: ("fpdiv",),
    Op.FMOVE: ("fpmove",),
    Op.ILOAD: ("load",),
    Op.FLOAD: ("load",),
    Op.ISTORE: ("store",),
    Op.FSTORE: ("store",),
    Op.PAUSE: ("alu0", "alu1"),
    Op.HALT: ("alu0", "alu1"),
    Op.PREFETCH: ("load",),
}

UNIT_NAMES = ("alu0", "alu1", "fpexec", "fpdiv", "fpmove", "load", "store")


class UnitPool:
    """All execution units of the physical package (shared by threads)."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.units: dict[str, ExecUnit] = {n: ExecUnit(n) for n in UNIT_NAMES}
        # Pre-resolve op -> (timing, (unit, unit...)) for the hot loop.
        self.dispatch: dict[int, tuple[OpTiming, tuple[ExecUnit, ...]]] = {}
        for op, route in ROUTES.items():
            timing = config.timings.get(op)
            if timing is None:
                raise ConfigError(f"no timing for {op.name}")
            self.dispatch[int(op)] = (
                timing,
                tuple(self.units[name] for name in route),
            )
        # Per-unit issue counters (for utilization analysis / tests).
        self.issue_counts: dict[str, int] = {n: 0 for n in UNIT_NAMES}
        self._switch_penalty = config.unit_switch_penalty

    def try_issue(self, op: int, tick: int, tid: int = 0) -> tuple[bool, int]:
        """Attempt to issue ``op`` at ``tick`` for thread ``tid``.

        Returns ``(issued, completion_tick)``; for loads the returned
        completion tick excludes memory latency (the core adds the
        hierarchy's answer).

        Of the free units on the op's route, one this thread used last
        is preferred (it avoids the switch drain), else the first in
        route order.  Switching a *busy* unit between hardware threads
        costs a fraction of the op's initiation interval (pipeline drain
        between contexts).  A unit that has gone idle since its last op
        switches for free, so sparse latency-bound chains (min-ILP
        streams) interleave perfectly, while back-to-back contention
        pays.
        """
        timing, route = self.dispatch[op]
        chosen = None
        for unit in route:
            if tick >= unit.next_free:
                if unit.last_tid == tid:
                    chosen = unit
                    break
                if chosen is None:
                    chosen = unit
        if chosen is None:
            return False, 0
        interval = timing.interval
        penalty = 0
        last = chosen.last_tid
        if last != tid:
            if last >= 0 and tick < chosen.next_free + interval:
                penalty = int(interval * self._switch_penalty)
            chosen.last_tid = tid
        chosen.next_free = tick + interval + penalty
        self.issue_counts[chosen.name] += 1
        return True, tick + timing.latency + penalty

    def reset(self) -> None:
        for unit in self.units.values():
            unit.reset()
        for name in self.issue_counts:
            self.issue_counts[name] = 0
