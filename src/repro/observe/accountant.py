"""Per-cycle slot attribution (top-down stall accounting).

Every boundary the allocator offers ``alloc_width`` slots, and every
tick the scheduler offers ``issue_width`` slots.  The accountant
classifies each slot *from each thread's viewpoint*: a slot the thread
filled is ``useful``, a slot its sibling filled is ``sibling``, and
every remaining slot is attributed to the reason this thread could not
use it — the taxonomy the paper needs to explain fig. 3's "no speedup
despite -82% misses" (store-buffer allocator stalls, ALU0
serialization, the single FP unit).

Conservation invariant (enforced by tests): for every thread, the
category counts of a breakdown sum to exactly ``width x accounted
slots`` — no cycle is dropped or double-counted, exactly like LIKWID's
requirement that derived metrics decompose raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cpu.thread import ThreadState
from repro.isa.opcodes import Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import SMTCore

# -- taxonomy ----------------------------------------------------------

USEFUL = "useful"
SIBLING = "sibling"

# Allocate-slot categories (why the allocator could not take this
# thread's next µop).
FETCH_STARVED = "fetch-starved"
PAUSE_GATED = "pause-gated"
ROB_STALLED = "rob-stalled"
LQ_STALLED = "lq-stalled"
SQ_STALLED = "sq-stalled"            # the paper's store-buffer stall

# Issue-slot categories (why no µop of this thread could dispatch).
RAW_WAIT = "raw-wait"
MEM_MISS_OUTSTANDING = "mem-miss-outstanding"
UNIT_BUSY = "unit-busy-"             # prefix + unit name (alu0, fpexec, ...)
EXEC_WAIT = "exec-wait"              # everything issued, non-load in flight
RETIRE_BOUND = "retire-bound"        # ROB complete, waiting on retirement
ALLOC_BOUND = "alloc-bound"          # µops fetched but not yet allocated

# Whole-thread states.
HALTED = "halted"
DRAINED = "drained"

_UNIT_NAMES = ("alu0", "alu1", "fpexec", "fpdiv", "fpmove", "load", "store")

ALLOC_CATEGORIES = (
    USEFUL, SIBLING, FETCH_STARVED, PAUSE_GATED,
    ROB_STALLED, LQ_STALLED, SQ_STALLED, HALTED, DRAINED,
)

ISSUE_CATEGORIES = (
    (USEFUL, SIBLING, RAW_WAIT, MEM_MISS_OUTSTANDING)
    + tuple(UNIT_BUSY + u for u in _UNIT_NAMES)
    + (EXEC_WAIT, RETIRE_BOUND, ALLOC_BOUND, FETCH_STARVED, PAUSE_GATED,
       HALTED, DRAINED)
)

_STALL_EXCLUDED = frozenset((USEFUL, SIBLING))


@dataclass
class SlotBreakdown:
    """Per-thread category counts for one slot kind (alloc or issue)."""

    kind: str                                  # "alloc" | "issue"
    width: int                                 # slots offered per event
    counts: list[dict[str, int]] = field(default_factory=list)
    slots: list[int] = field(default_factory=list)  # total attributed/thread

    def total(self, tid: int) -> int:
        return self.slots[tid]

    def fraction(self, tid: int, category: str) -> float:
        total = self.slots[tid]
        if not total:
            return 0.0
        return self.counts[tid].get(category, 0) / total

    def dominant_stalls(self, tid: int, n: int = 3) -> list[tuple[str, int]]:
        """Top non-useful, non-sibling categories for one thread."""
        items = [(c, v) for c, v in self.counts[tid].items()
                 if c not in _STALL_EXCLUDED and v]
        items.sort(key=lambda cv: cv[1], reverse=True)
        return items[:n]

    def check_conservation(self) -> bool:
        return all(
            sum(self.counts[tid].values()) == self.slots[tid]
            for tid in range(len(self.counts))
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "width": self.width,
            "per_thread": [
                {"total_slots": self.slots[tid],
                 "categories": dict(sorted(self.counts[tid].items()))}
                for tid in range(len(self.counts))
            ],
        }


class CycleAccountant:
    """Classifies allocate and issue slots, per thread, per cycle.

    Attach to a core (``SMTCore(..., accountant=...)``); the core calls
    :meth:`on_alloc` right after the allocate stage of every boundary
    and :meth:`on_issue` right after every issue stage, with the
    per-thread slot-use counts of that stage.
    """

    def __init__(self, num_threads: int = 2):
        self.num_threads = num_threads
        self.alloc = SlotBreakdown(
            "alloc", 0,
            [dict() for _ in range(num_threads)], [0] * num_threads,
        )
        self.issue = SlotBreakdown(
            "issue", 0,
            [dict() for _ in range(num_threads)], [0] * num_threads,
        )

    # -- core-facing hooks ---------------------------------------------

    def on_alloc(self, core: "SMTCore", t: int, used: list[int]) -> None:
        width = core.config.alloc_width
        self.alloc.width = width
        total_used = sum(used)
        for th in core.threads:
            tid = th.tid
            counts = self.alloc.counts[tid]
            self.alloc.slots[tid] += width
            mine = used[tid]
            others = total_used - mine
            if mine:
                counts[USEFUL] = counts.get(USEFUL, 0) + mine
            if others:
                counts[SIBLING] = counts.get(SIBLING, 0) + others
            leftover = width - mine - others
            if leftover > 0:
                cat = self._alloc_reason(core, th, t)
                counts[cat] = counts.get(cat, 0) + leftover

    def on_issue(self, core: "SMTCore", t: int, used: list[int]) -> None:
        width = core.config.issue_width
        self.issue.width = width
        total_used = sum(used)
        for th in core.threads:
            tid = th.tid
            counts = self.issue.counts[tid]
            self.issue.slots[tid] += width
            mine = used[tid]
            others = total_used - mine
            if mine:
                counts[USEFUL] = counts.get(USEFUL, 0) + mine
            if others:
                counts[SIBLING] = counts.get(SIBLING, 0) + others
            leftover = width - mine - others
            if leftover > 0:
                cat = self._issue_reason(core, th, t)
                counts[cat] = counts.get(cat, 0) + leftover

    def on_gap(self, core: "SMTCore", t_from: int, t_to: int) -> None:
        """Account ticks ``t_from..t_to`` (inclusive) skipped by the
        core's fast-forward.

        During a skip the machine state is provably frozen (that is what
        justifies the skip), so one classification per thread covers the
        whole gap: every skipped tick forgoes ``issue_width`` issue
        slots, and every skipped even tick (boundary) forgoes
        ``alloc_width`` allocate slots.
        """
        n_ticks = t_to - t_from + 1
        if n_ticks <= 0:
            return
        first_even = t_from if t_from % 2 == 0 else t_from + 1
        n_boundaries = 0 if first_even > t_to else (t_to - first_even) // 2 + 1
        issue_width = core.config.issue_width
        alloc_width = core.config.alloc_width
        self.issue.width = issue_width
        self.alloc.width = alloc_width
        for th in core.threads:
            tid = th.tid
            icat = self._issue_reason(core, th, t_from)
            icounts = self.issue.counts[tid]
            icounts[icat] = icounts.get(icat, 0) + n_ticks * issue_width
            self.issue.slots[tid] += n_ticks * issue_width
            if n_boundaries:
                acat = self._alloc_reason(core, th, first_even)
                acounts = self.alloc.counts[tid]
                acounts[acat] = acounts.get(acat, 0) + n_boundaries * alloc_width
                self.alloc.slots[tid] += n_boundaries * alloc_width

    def period_snapshot(self) -> tuple:
        """Freeze the current breakdown; pair with :meth:`on_period`."""
        return (
            [dict(c) for c in self.alloc.counts], list(self.alloc.slots),
            [dict(c) for c in self.issue.counts], list(self.issue.slots),
        )

    def on_period(self, core: "SMTCore", before: tuple, k: int) -> None:
        """Bulk-account ``k`` extra repeats of a steady-state period.

        ``before`` is the :meth:`period_snapshot` taken at the start of
        the just-completed period.  The steady-state fast-forward
        (:mod:`repro.cpu.fastpath`) proved the machine repeats that
        period exactly, so every category accumulated since the snapshot
        scales by ``k`` — identical, by construction, to stepping the
        period ``k`` more times.  Conservation is preserved: slots and
        counts scale by the same factor.
        """
        a_counts, a_slots, i_counts, i_slots = before
        for bd, b_counts, b_slots in (
            (self.alloc, a_counts, a_slots),
            (self.issue, i_counts, i_slots),
        ):
            for tid in range(len(bd.counts)):
                counts = bd.counts[tid]
                base = b_counts[tid]
                # A period never removes categories, so base keys are a
                # subset of current keys: iterating current covers all.
                for cat, cur in counts.items():
                    d = cur - base.get(cat, 0)
                    if d:
                        counts[cat] = cur + d * k
                bd.slots[tid] += (bd.slots[tid] - b_slots[tid]) * k

    # -- classification ------------------------------------------------

    def _alloc_reason(self, core: "SMTCore", th, t: int) -> str:
        """Why thread ``th`` could not fill an allocate slot at ``t``.

        Mirrors the allocator's own gating order (``_allocate``): queue
        partitions first, then the frontend.  Must be called *before*
        the same boundary's fetch stage refills the µop queue.
        """
        state = th.state
        if state is ThreadState.DONE:
            return DRAINED
        if state is ThreadState.HALTED:
            return HALTED
        if not th.uopq:
            if t < th.fetch_gate_until:
                return PAUSE_GATED
            return FETCH_STARVED
        _, _, lq_cap, sq_cap = core._caps(th)
        op = th.uopq[0].op
        if op is Op.ISTORE or op is Op.FSTORE:
            if th.sq_used >= sq_cap:
                return SQ_STALLED
        elif op is Op.ILOAD or op is Op.FLOAD:
            if th.lq_used >= lq_cap:
                return LQ_STALLED
        return ROB_STALLED

    def _issue_reason(self, core: "SMTCore", th, t: int) -> str:
        """Why thread ``th`` could not fill an issue slot at ``t``.

        Re-scans the thread's scheduler window the way the issue stage
        did; only runs when the accountant is attached, so the core's
        hot loop stays untouched.
        """
        state = th.state
        if state is ThreadState.DONE:
            return DRAINED
        if state is ThreadState.HALTED:
            return HALTED
        waiting = th.waiting
        if waiting:
            window = core.config.sched_window
            limit = window if window < len(waiting) else len(waiting)
            saw_load_wait = False
            saw_raw = False
            for k in range(limit):
                uop = waiting[k]
                if uop.issued:
                    continue
                ready = True
                for dep in uop.deps:
                    if not dep.completed:
                        ready = False
                        dep_op = dep.op
                        if dep_op is Op.ILOAD or dep_op is Op.FLOAD:
                            saw_load_wait = True
                        break
                if not ready:
                    saw_raw = True
                    continue
                # Ready but not issued: its unit(s) were busy.  Blame
                # the unit closest to accepting it.
                _, route = core.units.dispatch[int(uop.op)]
                unit = min(route, key=lambda u: u.next_free)
                return UNIT_BUSY + unit.name
            if saw_load_wait:
                return MEM_MISS_OUTSTANDING
            if saw_raw:
                return RAW_WAIT
            # Window exhausted by already-issued µops awaiting completion.
            return EXEC_WAIT
        # Nothing schedulable: look at the rest of the pipeline.
        rob = th.rob
        if rob:
            for uop in rob:
                if not uop.completed:
                    op = uop.op
                    if op is Op.ILOAD or op is Op.FLOAD:
                        return MEM_MISS_OUTSTANDING
                    return EXEC_WAIT
            return RETIRE_BOUND
        if th.uopq:
            return ALLOC_BOUND
        if t < th.fetch_gate_until:
            return PAUSE_GATED
        return FETCH_STARVED

    # -- results -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"alloc": self.alloc.to_dict(), "issue": self.issue.to_dict()}

    def check_conservation(self) -> bool:
        return self.alloc.check_conservation() and self.issue.check_conservation()
