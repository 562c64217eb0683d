"""The SMT core: fetch → allocate → issue → complete → retire.

Bandwidth sharing
-----------------
Fetch, allocation and retirement are each ``width`` µops every
``interval`` ticks.  Each boundary the slot is offered to the threads in
round-robin order, but an unusable slot is *donated* to the sibling (as on
real hyper-threading: a stalled or halted logical CPU does not waste the
shared front end).  Donation is what makes a memory-stalled or halted peer
cheap, while two busy symmetric threads split the front end exactly in
half — the root of most of the paper's fig. 1/2 slowdowns.

Static partitioning
-------------------
The µop queue, ROB, load queue and store queue give each thread half of
their entries while *both* logical CPUs are active; a `halt`ed (or
finished) thread's halves are released to the survivor (§3.1).  The
`unified_queues` config ablates this into a dynamically shared pool.

Store lifecycle
---------------
alloc (needs SQ entry) → issue on the store port (address+data dispatch)
→ retire → in-order drain to the cache at one commit per
``store_commit_interval``; the SQ entry frees only when the drained line
access completes.  `RESOURCE_STALL_SB` counts allocator cycles a thread's
store sat blocked on a full SQ — the paper's stall metric.

Issue stage
-----------
Each tick the issue stage offers ``issue_width`` slots to the threads in
priority order; a thread issues its oldest ready µops among the oldest
``sched_window`` entries of ``waiting``.  It finds them without
rescanning that window.  At allocate a µop counts its incomplete
producers into ``pending`` and registers on each producer's
``waiters``; a µop with none joins its thread's ``ready`` list at once.
A completion — a heap pop in ``_complete`` or a same-tick completion in
``_issue`` — counts each waiter down, and a waiter reaching zero is
inserted into ``ready`` in ``seq`` (age) order; the producer then drops
its ``waiters``, so no reference cycle outlives it.  ``_issue`` walks
``ready`` oldest first and stops at the window edge, the ``seq`` of the
last window entry when the walk starts.  A dependant woken by a
same-tick completion is younger than its producer, so it lands ahead of
the walk and is visited in the same pass, exactly as a window rescan
would.  Within one tick a unit only gets busier, so once ``try_issue``
fails for one unit set, every later µop routed to those units is
skipped for the rest of the tick, across both threads.  ``waiting`` and
``deps`` keep their full meaning (the fast-forward's state capture and
the stall accountant read both; ``deps`` is never pruned): ``ready`` is
always exactly the ``waiting`` entries whose ``deps`` have all
completed, in order.

Time advance
------------
``run`` steps one tick at a time; after each tick ``_advance`` picks
the next tick to step, and may skip the ticks in between in two ways.

The *idle skip* applies when no active thread holds a fetched or
waiting µop and no retirement, DONE transition or fetch is due.  It
jumps to the earliest completion, store-commit slot (with drains
queued), store-queue release, halted thread's wake-up or fetch gate,
and gives the accountant the gap in one ``on_gap`` call.  It is not
equal to stepping: the skipped boundaries get no ``CYCLES_ACTIVE`` and
no flip of the shared round-robin pointer ``_rr``.  Stepping those
ticks instead changes the counter digest of 5 of the 7 cases in
``tests/cpu/test_issue_exact.py``, and mm tlp-pfetch n=16 then ends at
32,957 ticks instead of 32,953.  Making it exact moves the golden
fixtures, the benchmark's pinned digests and every cached result, so
it waits for a result-semantics version in the cache key; until then
it is kept byte for byte.

The *quiet skip* is exact.  A tick is quiet when no stage can change
anything but per-boundary counters: no retirement, DONE transition,
allocation (every µop-queue head is held by its queue caps) or fetch
(gated, µop queue full, or source exhausted) is possible, nothing
completes, drains or releases, and every ready µop in each thread's
window routes only to units busy past the next tick.  After a tick
that issued and allocated nothing (``_moved_at``, set by ``_issue``
and ``_allocate``, so a busy tick pays one comparison),
``_quiet_advance`` checks these and lands on the earliest tick any of
them can change: the first free tick of a blocked unit set (each set
looked up once, by its ``_blocked_bit``), the completion-heap head,
the store-commit slot, a store-queue release, a halted thread's
wake-up, a fetch gate, or the horizon.  Nothing moves before it, so
no stop condition falls due inside.  ``_quiet_stretch`` then gives
each skipped tick exactly what stepping gives it.  Every boundary adds
``CYCLES_ACTIVE`` and each held thread's allocator stall, and flips
``_rr``; an attached accountant gets its per-tick callbacks.  An armed
fast-forward is offered every skipped boundary, with ``tick`` set to
it and the counters of earlier boundaries applied, and a jump ends the
stretch.  With neither attached, the counters are added in bulk.
``tests/cpu/test_quiet_skip.py`` checks that skipping and stepping
give equal results.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Optional

from repro.common.errors import ConfigError, DeadlockError
from repro.cpu import fastpath as _fastpath
from repro.cpu.config import CoreConfig
from repro.cpu.thread import ThreadContext, ThreadState, _FAR_FUTURE
from repro.cpu.units import UnitPool
from repro.isa.instr import Instr
from repro.isa.opcodes import Op
from repro.mem.hierarchy import MemoryHierarchy
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.perfmon import Event, PerfMonitor

_SEQ = attrgetter("seq")


@dataclass
class CoreResult:
    """Summary of one simulation run."""

    ticks: int
    instrs: tuple[int, ...]            # per thread, fetched instruction count
    retired: tuple[int, ...]           # per thread, retired µop count
    monitor: PerfMonitor
    unit_issue_counts: dict[str, int] = field(default_factory=dict)
    done_ticks: tuple[int, ...] = ()   # per thread, tick it drained

    @property
    def cycles(self) -> float:
        return self.ticks / 2

    def cpi(self, tid: Optional[int] = None) -> float:
        """Cycles per retired µop (per thread, or overall)."""
        n = sum(self.retired) if tid is None else self.retired[tid]
        if n == 0:
            return float("inf")
        return self.cycles / n

    def ipc(self, tid: Optional[int] = None) -> float:
        return 1.0 / self.cpi(tid)


class SMTCore:
    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        monitor: Optional[PerfMonitor] = None,
        *,
        tracer: Optional[Tracer] = None,
        accountant=None,
        fastpath: Optional[bool] = None,
    ):
        self.config = config or CoreConfig()
        # Observability hooks.  With the NullTracer default the hot loop
        # caches None (``self._tr``) and pays one is-None test per stage,
        # never a call; the accountant likewise costs nothing when absent.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tr = self.tracer if self.tracer.enabled else None
        self.accountant = accountant
        self._acct = accountant
        n = self.config.num_threads
        self._alloc_used = [0] * n
        self._issue_used = [0] * n
        self.monitor = monitor or PerfMonitor(self.config.num_threads)
        self.hierarchy = hierarchy or MemoryHierarchy(
            monitor=self.monitor, num_cpus=self.config.num_threads
        )
        if self.hierarchy.monitor is not self.monitor:
            raise ConfigError("hierarchy and core must share one PerfMonitor")
        self.units = UnitPool(self.config)
        # One bit per distinct unit set: a failed try_issue marks every
        # op routed to the same units blocked for the rest of the tick.
        bits: dict[frozenset, int] = {}
        self._blocked_bit = [0] * (max(self.units.dispatch) + 1)
        for op, (_timing, route) in self.units.dispatch.items():
            key = frozenset(unit.name for unit in route)
            self._blocked_bit[op] = bits.setdefault(key, 1 << len(bits))
        cfg = self.config
        self._full_caps = (cfg.uopq_total, cfg.rob_total,
                           cfg.loadq_total, cfg.storeq_total)
        self._half_caps = tuple(c // 2 for c in self._full_caps)
        self.threads: list[ThreadContext] = []
        self._peers: list[Optional[ThreadContext]] = []
        self._n_done = 0
        self.tick = 0
        self._gseq = 0
        self._comp_heap: list[tuple[int, int, Instr]] = []
        self._drain_q: deque[Instr] = deque()
        # Store-buffer entries release *in order* per thread (head-of-line
        # blocking): a store miss pins every younger entry of that thread.
        # This is what makes the halved SQ bite miss-heavy store streams
        # when the sibling is active (fig 2b: iadd vs istore).
        self._sq_release: list[deque[int]] = []
        self._store_commit_free = 0
        self._rr = 0  # round-robin pointer shared by fetch/alloc/retire
        self._issue_rr = 0  # issue priority; flips after a burst of issues
        self._issue_burst = 0
        # Reused round-robin orderings (rebuilt in add_thread): avoids a
        # fresh tuple per stage per tick on the hot path.
        self._order_single: Optional[tuple[ThreadContext, ...]] = None
        self._rr_pairs: Optional[tuple[tuple[ThreadContext, ...], ...]] = None
        # Store-queue entries awaiting release across all threads; gates
        # the per-tick _sq_release scans.
        self._sq_pending = 0
        self._advance_horizon = self.config.max_ticks + 1
        # Time advance (see the module docstring): the last tick whose
        # issue or allocate stage moved a µop, and the fast-forward as
        # armed for the current run (None when it stood down).
        self._moved_at = -1
        self._fp_live: Optional[_fastpath.FastPath] = None
        # Steady-state fast-forward (repro.cpu.fastpath).  Tracing needs
        # every tick observed, so an enabled tracer wins over fastpath;
        # further eligibility (profiler, instruction sources) is checked
        # at run() time.
        if fastpath is None:
            fastpath = _fastpath.default_enabled()
        self._fp = (
            _fastpath.FastPath(self)
            if fastpath and self._tr is None
            else None
        )
        # Why the fast-forward is off for this core (telemetry only):
        # construction-time gates are recorded here, run()-time gates
        # (profiler, instruction sources) are recorded by prepare().
        if self._fp is not None:
            self._fp_reason = None
        elif not fastpath:
            self._fp_reason = "disabled"
        else:
            self._fp_reason = "tracer-active"

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def add_thread(self, gen: Iterator[Instr]) -> int:
        """Bind an instruction generator to the next logical CPU."""
        if len(self.threads) >= self.config.num_threads:
            raise ConfigError(
                f"core supports {self.config.num_threads} logical CPUs"
            )
        tid = len(self.threads)
        self.threads.append(ThreadContext(tid, gen))
        self._sq_release.append(deque())
        threads = self.threads
        if len(threads) == 2:
            self._order_single = None
            self._rr_pairs = ((threads[0], threads[1]),
                              (threads[1], threads[0]))
            self._peers = [threads[1], threads[0]]
        else:
            self._order_single = (threads[0],)
            self._rr_pairs = None
            self._peers = [None]
        return tid

    # ------------------------------------------------------------------
    # Inter-processor interface (used by the runtime's sync primitives)
    # ------------------------------------------------------------------

    def wake(self, tid: int, now: Optional[int] = None) -> None:
        """Deliver an IPI to logical CPU ``tid`` (§3.1 kernel extension)."""
        now = self.tick if now is None else now
        th = self.threads[tid]
        cfg = self.config
        self.monitor.raw[Event.IPI_SENT][tid] += 1
        resume = now + cfg.ipi_latency + cfg.halt_exit_ticks
        if th.state is ThreadState.HALTED:
            if resume < th.wake_at:
                th.wake_at = resume
        else:
            # IPI raced ahead of the halt: remember it so the wake-up is
            # not lost when the halt finally retires.
            th.wake_pending = True

    def gate_fetch(self, tid: int, ticks: int) -> None:
        """Gate a thread's fetch (pipeline-flush penalty on spin exit)."""
        th = self.threads[tid]
        gate = self.tick + ticks
        if gate > th.fetch_gate_until:
            th.fetch_gate_until = gate
        self.monitor.raw[Event.PIPELINE_FLUSH][tid] += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        max_ticks: Optional[int] = None,
        stop_on_first_done: bool = False,
        stop_at_tick: Optional[int] = None,
    ) -> CoreResult:
        """Simulate until every thread drains (default).

        Two measurement-style stop conditions support the §4 CPI
        experiments: ``stop_on_first_done`` halts when the *first*
        thread drains (each thread's CPI then reflects only the interval
        during which both ran), and ``stop_at_tick`` halts cleanly at a
        fixed horizon (for co-running effectively-endless streams).
        """
        if not self.threads:
            raise ConfigError("no threads bound to the core")
        limit = max_ticks if max_ticks is not None else self.config.max_ticks
        threads = self.threads
        # _advance may only target events inside the run's own stopping
        # horizon; anything later can never be observed by this run.
        eff_limit = limit if stop_at_tick is None else min(limit, stop_at_tick)
        self._advance_horizon = eff_limit + 1
        fst = _fastpath.stats()
        fst.runs += 1
        start_tick = self.tick
        fp = self._fp
        if fp is None:
            fst.bump(fst.stand_downs, self._fp_reason or "disabled")
        elif not fp.prepare():
            fp = None
        self._fp_live = fp
        t = self.tick
        n_threads = len(threads)
        while True:
            if stop_at_tick is not None and t >= stop_at_tick:
                break
            n_done = self._n_done
            if n_done and (stop_on_first_done or n_done == n_threads):
                break
            if t >= limit:
                raise DeadlockError(
                    f"simulation exceeded {limit} ticks",
                    "\n".join(th.describe() for th in threads),
                )
            boundary = not (t & 1)
            if boundary and fp is not None:
                nt = fp.on_boundary(t, eff_limit)
                if nt != t:
                    t = nt
                    continue
            # Keep the public clock current: effects fired mid-cycle
            # (sync sampling, measurement markers) read core.tick.
            self.tick = t
            if boundary:
                self._process_wakes(t)
                self._retire(t)
            self._complete(t)
            self._drain_stores(t)
            self._issue(t)
            acct = self._acct
            if acct is not None:
                acct.on_issue(self, t, self._issue_used)
            if boundary:
                self._allocate(t)
                # Attribution must read the state *before* fetch refills
                # the µop queues (an empty queue here is fetch-starved).
                if acct is not None:
                    acct.on_alloc(self, t, self._alloc_used)
                self._fetch(t)
                self._count_stalls(t)
            t = self._advance(t)
        self.tick = t
        self._flush_drains(t)
        fst.ticks_total += t - start_tick
        return self._result()

    def _flush_drains(self, t: int) -> None:
        """Commit any store drains still in flight at run end.

        The reported runtime ends at the last retirement, but the cache
        state and write counters must reflect every retired store.
        """
        while self._drain_q:
            uop = self._drain_q.popleft()
            self.hierarchy.store(uop.addr, uop.thread, t)
            self.threads[uop.thread].sq_used -= 1
        for tid, rel in enumerate(self._sq_release):
            self.threads[tid].sq_used -= len(rel)
            rel.clear()
        self._sq_pending = 0

    def _result(self) -> CoreResult:
        return CoreResult(
            ticks=self.tick,
            instrs=tuple(th.instrs_emitted for th in self.threads),
            retired=tuple(th.uops_retired for th in self.threads),
            monitor=self.monitor,
            unit_issue_counts=dict(self.units.issue_counts),
            done_ticks=tuple(th.done_tick for th in self.threads),
        )

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def _process_wakes(self, t: int) -> None:
        for th in self.threads:
            if th.state is ThreadState.HALTED:
                if th.wake_at <= t:
                    th.state = ThreadState.ACTIVE
                    th.wake_at = _FAR_FUTURE
                    th.wake_pending = False
                    th.fetch_gate_until = t
                    if self._tr is not None:
                        self._tr.wake(t, th.tid)
            elif th.state is ThreadState.ACTIVE and not th.halt_inflight:
                self.monitor.raw[Event.CYCLES_ACTIVE][th.tid] += 1

    def _rr_order(self) -> tuple[ThreadContext, ...]:
        """Threads in round-robin order; advances the shared pointer."""
        pairs = self._rr_pairs
        if pairs is None:
            return self._order_single  # type: ignore[return-value]
        first = self._rr
        self._rr = 1 - first
        return pairs[first]

    def _retire(self, t: int) -> None:
        budget = self.config.retire_width
        tr = self._tr
        retired_counts = self.monitor.raw[Event.UOPS_RETIRED]
        pause_counts = self.monitor.raw[Event.PAUSE_RETIRED]
        for th in self._rr_order():
            if budget <= 0:
                break
            rob = th.rob
            while budget > 0 and rob:
                uop = rob[0]
                if not uop.completed:
                    break
                rob.popleft()
                budget -= 1
                th.uops_retired += 1
                op = uop.op
                retired_counts[th.tid] += 1
                if tr is not None:
                    tr.retire(t, th.tid, uop)
                if op is Op.ISTORE or op is Op.FSTORE:
                    if uop.effect is not None:
                        uop.effect()
                    self._drain_q.append(uop)
                elif op is Op.ILOAD or op is Op.FLOAD:
                    th.lq_used -= 1
                elif op is Op.PAUSE:
                    pause_counts[th.tid] += 1
                elif op is Op.HALT:
                    self._enter_halt(th, t)
            if (
                th.gen_done
                and th.state is ThreadState.ACTIVE
                and th.pipeline_empty()
            ):
                th.state = ThreadState.DONE
                th.done_tick = t
                self._n_done += 1

    def _enter_halt(self, th: ThreadContext, t: int) -> None:
        th.halt_inflight = False
        th.state = ThreadState.HALTED
        self.monitor.raw[Event.HALT_TRANSITIONS][th.tid] += 1
        if self._tr is not None:
            self._tr.halt(t, th.tid)
        if th.wake_pending:
            # An IPI arrived while we were entering the halt state.
            th.wake_pending = False
            cfg = self.config
            th.wake_at = t + cfg.ipi_latency + cfg.halt_exit_ticks

    def _complete(self, t: int) -> None:
        heap = self._comp_heap
        tr = self._tr
        while heap and heap[0][0] <= t:
            _, _, uop = heapq.heappop(heap)
            uop.completed = True
            waiters = uop.waiters
            if waiters is not None:
                uop.waiters = None
                _wake(waiters, self.threads[uop.thread].ready)
            if tr is not None:
                tr.complete(t, uop.thread, uop)
            op = uop.op
            if uop.effect is not None and op is not Op.ISTORE and op is not Op.FSTORE:
                uop.effect()

    def _drain_stores(self, t: int) -> None:
        if self._sq_pending:
            for tid, rel in enumerate(self._sq_release):
                released = 0
                while rel and rel[0] <= t:
                    rel.popleft()
                    released += 1
                if released:
                    self.threads[tid].sq_used -= released
                    self._sq_pending -= released
        q = self._drain_q
        tr = self._tr
        while q and t >= self._store_commit_free:
            uop = q.popleft()
            access = self.hierarchy.store(uop.addr, uop.thread, t)
            if tr is not None:
                tr.drain(t, uop.thread, uop)
            self._store_commit_free = t + self.config.store_commit_interval
            rel = self._sq_release[uop.thread]
            done = t + access.latency
            # In-order release: never before the previous entry.
            if rel and rel[-1] > done:
                done = rel[-1]
            rel.append(done)
            self._sq_pending += 1

    def _issue(self, t: int) -> None:
        budget = self.config.issue_width
        window = self.config.sched_window
        units = self.units
        hierarchy = self.hierarchy
        heap = self._comp_heap
        threads = self.threads
        tr = self._tr
        blocked_bit = self._blocked_bit
        blocked = 0
        used = self._issue_used if self._acct is not None else None
        if used is not None:
            for i in range(len(used)):
                used[i] = 0
        pairs = self._rr_pairs
        if pairs is None:
            order: tuple[ThreadContext, ...] = self._order_single or ()
        else:
            # Priority alternates on *use*, not on tick parity: unit
            # free slots recur with even periods, so parity-based
            # priority would starve one thread systematically.
            order = pairs[self._issue_rr]
        for th in order:
            if budget <= 0:
                break
            ready = th.ready
            if not ready:
                continue
            tid = th.tid
            waiting = th.waiting
            head = window if window < len(waiting) else len(waiting)
            edge = waiting[head - 1].seq
            issued_any = False
            i = 0
            # ``ready`` changes under the loop: an issued µop leaves it
            # at position i, and a same-tick completion inserts its
            # woken dependants (all younger) at or after position i.
            while budget > 0 and i < len(ready):
                uop = ready[i]
                if uop.seq > edge:
                    break
                op = uop.op
                bit = blocked_bit[op]
                if blocked & bit:
                    i += 1
                    continue
                ok, comp = units.try_issue(op, t, tid)
                if not ok:
                    blocked |= bit
                    i += 1
                    continue
                if op is Op.ILOAD or op is Op.FLOAD:
                    access = hierarchy.load(uop.addr, tid, t, uop.site)
                    comp += access.latency
                elif op is Op.PREFETCH:
                    hierarchy.swprefetch(uop.addr, tid, t)
                    self.monitor.raw[Event.SW_PREFETCH_ISSUED][tid] += 1
                elif op is Op.HALT:
                    comp = t + self.config.halt_enter_ticks
                uop.issued = True
                del ready[i]
                del waiting[bisect_left(waiting, uop.seq, key=_SEQ)]
                budget -= 1
                issued_any = True
                if used is not None:
                    used[tid] += 1
                if tr is not None:
                    tr.issue(t, tid, uop)
                if comp <= t:
                    uop.completed = True
                    waiters = uop.waiters
                    if waiters is not None:
                        uop.waiters = None
                        _wake(waiters, ready)
                    if tr is not None:
                        tr.complete(t, tid, uop)
                    if uop.effect is not None:
                        uop.effect()
                else:
                    self._gseq += 1
                    heapq.heappush(heap, (comp, self._gseq, uop))
            if issued_any:
                self._moved_at = t
                if len(threads) == 2 and th is order[0]:
                    self._issue_burst += 1
                    if self._issue_burst >= self.config.issue_burst:
                        self._issue_rr = 1 - self._issue_rr
                        self._issue_burst = 0

    # -- capacity helpers ----------------------------------------------

    def _caps(self, th: ThreadContext) -> tuple[int, ...]:
        """``th``'s (µop queue, ROB, load queue, store queue) capacity."""
        peer = self._peers[th.tid]
        if self.config.partitioned:
            if peer is not None and peer.occupies_partition:
                return self._half_caps
            return self._full_caps
        if peer is None:
            return self._full_caps
        uopq, rob, lq, sq = self._full_caps
        return (uopq - len(peer.uopq), rob - len(peer.rob),
                lq - peer.lq_used, sq - peer.sq_used)

    def _allocate(self, t: int) -> None:
        budget = width = self.config.alloc_width
        tr = self._tr
        used = self._alloc_used if self._acct is not None else None
        if used is not None:
            for i in range(len(used)):
                used[i] = 0
        for th in self._rr_order():
            if budget <= 0:
                break
            uopq = th.uopq
            if not uopq or th.state is not ThreadState.ACTIVE:
                continue
            # Under unified queues the peer's usage sets the caps, so
            # they are read at this thread's turn, after the peer's.
            _, rob_cap, lq_cap, sq_cap = self._caps(th)
            rob = th.rob
            waiting = th.waiting
            ready = th.ready
            regmap = th.regmap
            while budget > 0 and uopq:
                uop = uopq[0]
                if len(rob) >= rob_cap:
                    break
                op = uop.op
                if op is Op.ILOAD or op is Op.FLOAD:
                    if th.lq_used >= lq_cap:
                        break
                    th.lq_used += 1
                elif op is Op.ISTORE or op is Op.FSTORE:
                    if th.sq_used >= sq_cap:
                        break
                    th.sq_used += 1
                uopq.popleft()
                budget -= 1
                uop.waiters = None
                pending = 0
                srcs = uop.srcs
                if srcs:
                    deps = []
                    for s in srcs:
                        producer = regmap.get(s)
                        if producer is not None and not producer.completed:
                            deps.append(producer)
                            if producer.waiters is None:
                                producer.waiters = [uop]
                            else:
                                producer.waiters.append(uop)
                    if deps:
                        uop.deps = tuple(deps)
                        pending = len(deps)
                uop.pending = pending
                dst = uop.dst
                if dst is not None:
                    regmap[dst] = uop
                rob.append(uop)
                waiting.append(uop)
                if not pending:
                    # The youngest µop: appending keeps age order.
                    ready.append(uop)
                if used is not None:
                    used[th.tid] += 1
                if tr is not None:
                    tr.alloc(t, th.tid, uop)
        if budget < width:
            self._moved_at = t

    def _count_stalls(self, t: int) -> None:
        """Per-cycle allocator-stall accounting (the paper's metric)."""
        mon = self.monitor.raw
        for th in self.threads:
            if th.state is not ThreadState.ACTIVE or not th.uopq:
                continue
            op = th.uopq[0].op
            _, rob_cap, lq_cap, sq_cap = self._caps(th)
            if op is Op.ISTORE or op is Op.FSTORE:
                if th.sq_used >= sq_cap:
                    mon[Event.RESOURCE_STALL_SB][th.tid] += 1
                    continue
            elif op is Op.ILOAD or op is Op.FLOAD:
                if th.lq_used >= lq_cap:
                    mon[Event.RESOURCE_STALL_LQ][th.tid] += 1
                    continue
            if len(th.rob) >= rob_cap:
                mon[Event.RESOURCE_STALL_ROB][th.tid] += 1

    def _fetch(self, t: int) -> None:
        budget = self.config.fetch_width
        cfg = self.config
        tr = self._tr
        fetched_counts = self.monitor.raw[Event.UOPS_FETCHED]
        for th in self._rr_order():
            if budget <= 0:
                break
            if not th.can_fetch(t):
                continue
            cap = self._caps(th)[0]
            uopq = th.uopq
            if tr is None and th.batched:
                # Compiled-trace sources: pull whole fetch batches.  Gate
                # ops only ever arrive in length-1 batches (compiled
                # traces exclude them; one-shot parts are singletons), so
                # checking gates per instruction inside the batch is
                # exactly equivalent to the one-at-a-time loop.
                while budget > 0:
                    room = cap - len(uopq)
                    if room <= 0:
                        break
                    n = budget if budget < room else room
                    batch = th.pull_batch(n)
                    if not batch:
                        break
                    fetched_counts[th.tid] += len(batch)
                    th.uops_fetched += len(batch)
                    budget -= len(batch)
                    gated = False
                    for instr in batch:
                        uopq.append(instr)
                        op = instr.op
                        if op is Op.PAUSE:
                            th.fetch_gate_until = t + cfg.pause_fetch_gate
                            gated = True
                        elif op is Op.HALT:
                            th.halt_inflight = True
                            th.fetch_gate_until = _FAR_FUTURE
                            gated = True
                    if gated:
                        break
                continue
            while budget > 0 and len(uopq) < cap:
                instr = th.pull()
                if instr is None:
                    break
                uopq.append(instr)
                fetched_counts[th.tid] += 1
                th.uops_fetched += 1
                budget -= 1
                if tr is not None:
                    tr.fetch(t, th.tid, instr)
                op = instr.op
                if op is Op.PAUSE:
                    # De-pipeline the spin loop: stop fetching for a while.
                    th.fetch_gate_until = t + cfg.pause_fetch_gate
                    break
                if op is Op.HALT:
                    # Nothing may be fetched past a halt until the IPI.
                    th.halt_inflight = True
                    th.fetch_gate_until = _FAR_FUTURE
                    break

    # ------------------------------------------------------------------

    def _advance(self, t: int) -> int:
        """Advance time, skipping ticks where provably nothing can happen.

        The idle skip is conservative: it only fast-forwards when no
        thread can fetch, allocate or issue, so the next interesting
        moment is the earliest of: a completion, a store-commit slot (if
        drains are queued), a wake-up, or a fetch gate expiring.  When an
        active thread holds µops, a tick that moved none goes to the
        quiet skip (``_quiet_advance``) instead.
        """
        all_done = True
        for th in self.threads:
            state = th.state
            if state is not ThreadState.DONE:
                all_done = False
            if state is ThreadState.ACTIVE:
                if th.uopq or th.waiting:
                    if self._moved_at == t:
                        return t + 1
                    return self._quiet_advance(t)
                if th.rob and th.rob[0].completed:
                    return t + 1  # retirement due at the next boundary
                if not th.gen_done and t + 1 >= th.fetch_gate_until:
                    return t + 1
                if th.gen_done and not th.rob:
                    # Exhausted source, drained pipeline: the DONE
                    # transition itself is due at the next boundary's
                    # retire pass.
                    return t + 1
        if all_done:
            # Programs end at the last retirement; in-flight store
            # drains must not stretch the reported runtime.
            return t + 1
        # The horizon derives from the run's own stopping conditions
        # (min(max_ticks, stop_at_tick) + 1, set by run()): an event at
        # or past it can never be observed, and a missed event inside it
        # can no longer hide behind an arbitrary fixed-size window on
        # short-limit runs.
        horizon = self._advance_horizon
        nxt = horizon
        if self._comp_heap:
            nxt = min(nxt, self._comp_heap[0][0])
        if self._drain_q:
            nxt = min(nxt, self._store_commit_free)
        if self._sq_pending:
            for rel in self._sq_release:
                if rel:
                    nxt = min(nxt, rel[0])
        for th in self.threads:
            if th.state is ThreadState.HALTED and th.wake_at < _FAR_FUTURE:
                nxt = min(nxt, th.wake_at)
            if th.state is ThreadState.ACTIVE and not th.gen_done:
                nxt = min(nxt, th.fetch_gate_until)
        if nxt <= t:
            return t + 1
        if nxt >= horizon:
            # No event inside the run's horizon.  A machine whose every
            # surviving thread is halted with no wake-up scheduled is
            # deadlocked; otherwise jump straight to the horizon, where
            # run()'s stop/limit checks take over.
            alive = [th for th in self.threads if th.state is not ThreadState.DONE]
            if (
                alive
                and all(th.state is ThreadState.HALTED for th in alive)
                and all(th.wake_at >= _FAR_FUTURE for th in alive)
            ):
                raise DeadlockError(
                    "all remaining logical CPUs are halted with no IPI in flight",
                    "\n".join(th.describe() for th in self.threads),
                )
            if horizon - 1 <= t:
                return t + 1
            nxt = horizon - 1
        # Land on the event tick, preserving boundary alignment semantics
        # (boundaries are even ticks; an odd event tick is still handled).
        if self._acct is not None and nxt > t + 1:
            # The machine is provably idle over (t, nxt): attribute the
            # skipped slots in bulk so conservation holds against the
            # wall-tick count even through the fast-forward.
            self._acct.on_gap(self, t + 1, nxt - 1)
        return nxt

    def _quiet_advance(self, t: int) -> int:
        """Land on the first tick after ``t`` at which a stage can move.

        Called after a tick that issued and allocated nothing.  Ticks up
        to that landing are quiet: each is given exactly what stepping
        it would give (module docstring, "Time advance").
        """
        t1 = t + 1
        nxt = self._advance_horizon - 1
        heap = self._comp_heap
        if heap:
            c = heap[0][0]
            if c <= t1:
                return t1
            if c < nxt:
                nxt = c
        if self._drain_q:
            c = self._store_commit_free
            if c <= t1:
                return t1
            if c < nxt:
                nxt = c
        if self._sq_pending:
            for rel in self._sq_release:
                if rel:
                    c = rel[0]
                    if c <= t1:
                        return t1
                    if c < nxt:
                        nxt = c
        for th in self.threads:
            rob = th.rob
            if rob and rob[0].completed:
                return t1                   # a retirement
            state = th.state
            if state is ThreadState.ACTIVE:
                uopq = th.uopq
                uopq_cap, rob_cap, lq_cap, sq_cap = self._caps(th)
                if uopq:
                    if len(rob) < rob_cap:
                        op = uopq[0].op
                        if op is Op.ILOAD or op is Op.FLOAD:
                            if th.lq_used < lq_cap:
                                return t1   # an allocation
                        elif op is Op.ISTORE or op is Op.FSTORE:
                            if th.sq_used < sq_cap:
                                return t1
                        else:
                            return t1
                elif th.gen_done and not rob:
                    return t1               # the DONE transition
                if not th.gen_done and len(uopq) < uopq_cap:
                    c = th.fetch_gate_until
                    if c <= t1:
                        return t1           # a fetch
                    if c < nxt:
                        nxt = c
            elif state is ThreadState.HALTED:
                c = th.wake_at
                if c <= t1:
                    return t1
                if c < nxt:
                    nxt = c
        # An issue: the first free tick of each unit set a ready µop in
        # the window routes to, each set walked once.
        window = self.config.sched_window
        blocked_bit = self._blocked_bit
        dispatch = self.units.dispatch
        seen = 0
        for th in self.threads:
            ready = th.ready
            if not ready:
                continue
            waiting = th.waiting
            head = window if window < len(waiting) else len(waiting)
            edge = waiting[head - 1].seq
            for uop in ready:
                if uop.seq > edge:
                    break
                op = uop.op
                bit = blocked_bit[op]
                if seen & bit:
                    continue
                seen |= bit
                for unit in dispatch[op][1]:
                    c = unit.next_free
                    if c <= t1:
                        return t1
                    if c < nxt:
                        nxt = c
        if nxt <= t1:
            return t1
        return self._quiet_stretch(t1, nxt)

    def _quiet_stretch(self, t1: int, nxt: int) -> int:
        """Give quiet ticks ``t1 .. nxt - 1`` what stepping gives them.

        Each boundary adds ``CYCLES_ACTIVE`` (``_process_wakes``), flips
        the shared round-robin pointer (three ``_rr_order`` calls) and
        adds each stalled thread's allocator stall (``_count_stalls``);
        the accountant sees every tick.  An armed fast-forward is
        offered every boundary, as the run loop would offer it, and its
        jump ends the stretch.
        """
        mon = self.monitor.raw
        counts = []
        for th in self.threads:
            if th.state is not ThreadState.ACTIVE:
                continue
            tid = th.tid
            if not th.halt_inflight:
                counts.append((mon[Event.CYCLES_ACTIVE], tid))
            if th.uopq:
                # The head cannot allocate: its queue or the ROB is full.
                op = th.uopq[0].op
                _, _, lq_cap, sq_cap = self._caps(th)
                if (op is Op.ISTORE or op is Op.FSTORE) and th.sq_used >= sq_cap:
                    counts.append((mon[Event.RESOURCE_STALL_SB], tid))
                elif (op is Op.ILOAD or op is Op.FLOAD) and th.lq_used >= lq_cap:
                    counts.append((mon[Event.RESOURCE_STALL_LQ], tid))
                else:
                    counts.append((mon[Event.RESOURCE_STALL_ROB], tid))
        flip = self._rr_pairs is not None
        fp = self._fp_live
        acct = self._acct
        if (fp is None or not fp._armed) and acct is None:
            first = t1 + (t1 & 1)
            n = (nxt - first + 1) // 2 if first < nxt else 0
            for row, tid in counts:
                row[tid] += n
            if flip and n & 1:
                self._rr ^= 1
            return nxt
        if acct is not None:
            issue_used = self._issue_used
            alloc_used = self._alloc_used
            for i in range(len(issue_used)):
                issue_used[i] = 0
                alloc_used[i] = 0
        eff_limit = self._advance_horizon - 1
        for u in range(t1, nxt):
            if u & 1:
                if acct is not None:
                    acct.on_issue(self, u, issue_used)
                continue
            if fp is not None:
                self.tick = u
                land = fp.on_boundary(u, eff_limit)
                if land != u:
                    return land
            for row, tid in counts:
                row[tid] += 1
            if flip:
                self._rr ^= 1
            if acct is not None:
                acct.on_issue(self, u, issue_used)
                acct.on_alloc(self, u, alloc_used)
        return nxt


def _wake(waiters: list, ready: list) -> None:
    """Count a completion down in each waiter; a waiter whose last
    producer completed joins its thread's ``ready`` list in age order."""
    for w in waiters:
        w.pending -= 1
        if not w.pending:
            seq = w.seq
            if not ready or ready[-1].seq < seq:
                ready.append(w)
            else:
                ready.insert(bisect_left(ready, seq, key=_SEQ), w)
