"""The two-level hierarchy shared by both logical CPUs.

Timing model
------------
``load``/``store`` return the access latency in ticks, charged to the µop
that issued it.  Hits cost the level's latency.  A memory access also
contends for the shared front-side bus: a transfer occupies the bus for
``bus_occupancy`` ticks, so when both hardware threads miss simultaneously
their *latencies* overlap but their *transfers* serialize — the mechanism
that lets the iload stream profit from SMT (fig 1) while streaming
workloads with two miss-heavy threads see diminishing returns.

Caches are write-allocate / write-back.  Dirty evictions are counted
(``L2_WRITEBACK``) but writeback traffic is not separately timed — the
paper's counters do not observe it and its effect on these workloads is
second-order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.cache import Cache
from repro.mem.config import MemConfig
from repro.mem.prefetch import AdjacentLinePrefetcher
from repro.perfmon import Event, PerfMonitor

# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_L1D_READ_ACCESS = Event.L1D_READ_ACCESS
_L1D_READ_MISS = Event.L1D_READ_MISS
_L1D_WRITE_ACCESS = Event.L1D_WRITE_ACCESS
_L1D_WRITE_MISS = Event.L1D_WRITE_MISS
_L2_READ_ACCESS = Event.L2_READ_ACCESS
_L2_READ_MISS = Event.L2_READ_MISS
_L2_WRITE_ACCESS = Event.L2_WRITE_ACCESS
_L2_WRITE_MISS = Event.L2_WRITE_MISS
_L2_PREFETCH_FILL = Event.L2_PREFETCH_FILL
_L2_WRITEBACK = Event.L2_WRITEBACK


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one access (mainly for tests and profilers)."""

    latency: int
    level: int  # 1 = L1 hit, 2 = L2 hit, 3 = memory


class MemoryHierarchy:
    def __init__(
        self,
        config: Optional[MemConfig] = None,
        monitor: Optional[PerfMonitor] = None,
        num_cpus: int = 2,
    ):
        self.config = cfg = config or MemConfig()
        self.monitor = monitor or PerfMonitor(num_cpus)
        self.l1 = Cache(cfg.l1_size, cfg.l1_assoc, cfg.line_size, "L1D")
        self.l2 = Cache(cfg.l2_size, cfg.l2_assoc, cfg.line_size, "L2")
        self.prefetcher = AdjacentLinePrefetcher(cfg.prefetch_degree, num_cpus)
        # Optional delinquent-address profiler (repro.observe.heatmap's
        # SiteMissProfile, or anything with a ``record(site, line, cpu)``
        # method): fed every demand L2 read miss with its static site.
        self.profiler = None
        self._bus_free = 0
        self._l2_free = 0
        # Lines the HW prefetcher has requested but that are still in
        # flight: line -> tick the data arrives.  A demand access that
        # catches a line in flight pays the residual latency ("late
        # prefetch") but is not an L2 miss as seen by the bus unit — the
        # bus transaction was the prefetcher's.
        self._pf_pending: dict[int, int] = {}
        # Prefetched lines not yet consumed by demand: first demand use
        # extends the stream (trigger-on-use continuation).
        self._pf_tag: set[int] = set()

    # ------------------------------------------------------------------

    def load(self, addr: int, cpu: int, now: int, site: int = -1) -> AccessResult:
        """A demand read by logical CPU ``cpu`` at tick ``now``.

        ``site`` is the static instruction site of the load, used only
        by the attached delinquency profiler (if any).
        """
        cfg = self.config
        mon = self.monitor.raw
        line = addr // cfg.line_size
        mon[_L1D_READ_ACCESS][cpu] += 1
        if self.l1.lookup(line):
            return AccessResult(cfg.l1_latency, 1)
        mon[_L1D_READ_MISS][cpu] += 1
        mon[_L2_READ_ACCESS][cpu] += 1
        port_delay = self._l2_port(now)
        if self.l2.lookup(line):
            latency = (cfg.l2_latency + port_delay
                       + self._pending_delay(line, now))
            self._fill_l1(line, cpu, dirty=False)
            if cfg.prefetch_enabled and line in self._pf_tag:
                self._pf_tag.discard(line)
                self._issue_prefetches(
                    self.prefetcher.on_prefetch_hit(line, cpu), cpu, now
                )
            return AccessResult(latency, 2)
        # L2 read miss — the event the paper's counters report.
        mon[_L2_READ_MISS][cpu] += 1
        if self.profiler is not None:
            self.profiler.record(site, line, cpu)
        latency = port_delay + self._memory_access(now)
        self._fill_l2(line, cpu, dirty=False)
        self._fill_l1(line, cpu, dirty=False)
        if cfg.prefetch_enabled:
            self._issue_prefetches(
                self.prefetcher.on_l2_miss(line, cpu), cpu, now
            )
        return AccessResult(latency, 3)

    def _issue_prefetches(self, lines, cpu: int, now: int) -> None:
        mon = self.monitor.raw
        for pline in lines:
            if not self.l2.contains(pline):
                mon[_L2_PREFETCH_FILL][cpu] += 1
                self._fill_l2(pline, cpu, dirty=False)
                self._pf_pending[pline] = now + self._memory_access(now)
                self._pf_tag.add(pline)

    def store(self, addr: int, cpu: int, now: int) -> AccessResult:
        """A store committing from the store buffer (write-allocate)."""
        cfg = self.config
        mon = self.monitor.raw
        line = addr // cfg.line_size
        mon[_L1D_WRITE_ACCESS][cpu] += 1
        if self.l1.lookup(line, write=True):
            return AccessResult(cfg.l1_latency, 1)
        mon[_L1D_WRITE_MISS][cpu] += 1
        mon[_L2_WRITE_ACCESS][cpu] += 1
        port_delay = self._l2_port(now)
        if self.l2.lookup(line, write=True):
            latency = (cfg.l2_latency + port_delay
                       + self._pending_delay(line, now))
            self._fill_l1(line, cpu, dirty=True)
            return AccessResult(latency, 2)
        mon[_L2_WRITE_MISS][cpu] += 1
        latency = port_delay + self._memory_access(now)
        self._fill_l2(line, cpu, dirty=True)
        self._fill_l1(line, cpu, dirty=True)
        return AccessResult(latency, 3)

    def prefetch(self, addr: int, cpu: int, now: int, site: int = -1) -> AccessResult:
        """A *software* prefetch (SPR helper-thread load): same path as a
        demand load; kept separate so callers read naturally."""
        return self.load(addr, cpu, now, site)

    def swprefetch(self, addr: int, cpu: int, now: int) -> AccessResult:
        """A non-blocking PREFETCH instruction (prefetchnta-style).

        Starts the line fill into L2 if it is absent, charging the bus
        and L2 port like any transfer, but counts no demand miss and
        never stalls the issuing µop (it retires immediately; a later
        demand access pays any residual fill latency).
        """
        cfg = self.config
        line = addr // cfg.line_size
        if self.l1.contains(line) or self.l2.contains(line):
            return AccessResult(0, 2)
        self.monitor.raw[_L2_PREFETCH_FILL][cpu] += 1
        self._l2_port(now)
        ready = now + self._memory_access(now)
        self._fill_l2(line, cpu, dirty=False)
        self._pf_pending[line] = ready
        self._pf_tag.add(line)
        return AccessResult(0, 3)

    # ------------------------------------------------------------------

    def _l2_port(self, now: int) -> int:
        """Queueing delay on the shared single L2 port."""
        start = self._l2_free if self._l2_free > now else now
        self._l2_free = start + self.config.l2_port_interval
        return start - now

    def _pending_delay(self, line: int, now: int) -> int:
        """Residual wait if ``line`` is a prefetch still in flight."""
        ready = self._pf_pending.get(line)
        if ready is None:
            return 0
        if ready <= now:
            del self._pf_pending[line]
            return 0
        return ready - now

    def _memory_access(self, now: int) -> int:
        """Memory latency including shared-bus queueing delay."""
        cfg = self.config
        start = self._bus_free if self._bus_free > now else now
        self._bus_free = start + cfg.bus_occupancy
        return (start - now) + cfg.mem_latency

    def _fill_l1(self, line: int, cpu: int, dirty: bool) -> None:
        victim = self.l1.fill(line, dirty)
        if victim is not None and victim[1]:
            # Dirty L1 victim writes back into L2.
            self.l2.lookup(victim[0], write=True) or self.l2.fill(victim[0], True)

    def _fill_l2(self, line: int, cpu: int, dirty: bool) -> None:
        victim = self.l2.fill(line, dirty)
        if victim is not None:
            vline, vdirty = victim
            if vdirty:
                self.monitor.raw[_L2_WRITEBACK][cpu] += 1
            # Non-inclusive hierarchy would keep L1; Netburst L2 is
            # inclusive of L1, so an L2 eviction invalidates L1 too.
            self.l1.invalidate(vline)

    def reset(self) -> None:
        self.l1.flush()
        self.l2.flush()
        self.prefetcher.reset()
        self._bus_free = 0
        self._l2_free = 0
        self._pf_pending.clear()
        self._pf_tag.clear()
