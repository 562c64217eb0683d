"""Per-logical-CPU state.

A :class:`ThreadContext` owns the thread's instruction source (a Python
generator), its half of the statically partitioned queues, its register
rename map, and its scheduling bookkeeping.  The core manipulates these
contexts; nothing here advances time by itself.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Iterator, Optional

from repro.isa.instr import Instr

_FAR_FUTURE = 1 << 62


class ThreadState(enum.Enum):
    ACTIVE = "active"
    HALTED = "halted"    # executed `halt`; partitions released, sleeping
    DONE = "done"        # generator exhausted and pipeline drained


# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_ACTIVE = ThreadState.ACTIVE


class ThreadContext:
    __slots__ = (
        "tid",
        "gen",
        "batched",
        "state",
        "uopq",
        "rob",
        "waiting",
        "ready",
        "regmap",
        "lq_used",
        "sq_used",
        "gen_done",
        "fetch_gate_until",
        "wake_at",
        "wake_pending",
        "halt_inflight",
        "seq_next",
        "uops_fetched",
        "uops_retired",
        "instrs_emitted",
        "done_tick",
    )

    def __init__(self, tid: int, gen: Iterator[Instr]):
        self.tid = tid
        self.gen = gen
        # Sources exposing take(n) (compiled traces / chained sources)
        # let the core fetch whole batches without per-µop generator
        # resumption.
        self.batched = callable(getattr(gen, "take", None))
        self.state = _ACTIVE
        self.uopq: deque[Instr] = deque()
        self.rob: deque[Instr] = deque()
        # Allocated, not yet issued µops in age order; ``ready`` is the
        # subsequence whose producers have all completed (the core's
        # issue stage keeps it, see ``cpu/core.py``).
        self.waiting: list[Instr] = []
        self.ready: list[Instr] = []
        self.regmap: dict[int, Instr] = {}
        self.lq_used = 0
        self.sq_used = 0
        self.gen_done = False
        self.fetch_gate_until = 0
        self.wake_at = _FAR_FUTURE
        self.wake_pending = False
        self.halt_inflight = False
        self.seq_next = 0
        self.uops_fetched = 0
        self.uops_retired = 0
        self.instrs_emitted = 0
        self.done_tick = -1

    # ------------------------------------------------------------------

    def can_fetch(self, tick: int) -> bool:
        return (
            self.state is _ACTIVE
            and not self.gen_done
            and tick >= self.fetch_gate_until
        )

    def pipeline_empty(self) -> bool:
        return not self.uopq and not self.rob

    def pull(self) -> Optional[Instr]:
        """Fetch the next instruction from the generator, if any."""
        try:
            instr = next(self.gen)
        except StopIteration:
            self.gen_done = True
            return None
        instr.thread = self.tid
        instr.seq = self.seq_next
        self.seq_next += 1
        self.instrs_emitted += 1
        return instr

    def pull_batch(self, n: int) -> list[Instr]:
        """Fetch up to ``n`` instructions from a batched source.

        Returns the same instructions, with the same thread/seq stamps,
        as ``n`` consecutive :meth:`pull` calls; an empty list marks the
        source exhausted (``gen_done``).  Batched sources guarantee that
        fetch-gating ops (PAUSE/HALT) only ever arrive in length-1
        batches, which is what keeps the core's batched fetch loop exact.
        """
        batch = self.gen.take(n)
        if not batch:
            self.gen_done = True
            return batch
        tid = self.tid
        seq = self.seq_next
        for instr in batch:
            instr.thread = tid
            instr.seq = seq
            seq += 1
        count = len(batch)
        self.seq_next = seq
        self.instrs_emitted += count
        return batch

    def describe(self) -> str:
        """One-line diagnostic used by deadlock reports."""
        return (
            f"T{self.tid}[{self.state.value}] uopq={len(self.uopq)} "
            f"rob={len(self.rob)} waiting={len(self.waiting)} "
            f"lq={self.lq_used} sq={self.sq_used} "
            f"fetched={self.uops_fetched} retired={self.uops_retired} "
            f"gen_done={self.gen_done} gate_until={self.fetch_gate_until} "
            f"wake_at={'-' if self.wake_at >= _FAR_FUTURE else self.wake_at}"
        )
