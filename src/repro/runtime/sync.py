"""User-space synchronization primitives (paper §3.1).

Every primitive is a generator that *emits the instructions a real
implementation executes*: the spin loop's load / pause / branch triple,
the barrier's atomic decrement, the `halt` of the long-duration waits.
Functional visibility follows the simulated pipeline: a store's shared-
variable update fires when the store retires; a spin iteration observes
the value its load sampled when the load completed.  Exiting a spin loop
charges the pipeline-flush penalty the paper attributes to memory-order
violations.

Wake-up race freedom
--------------------
The halt-mode wait registers the waiter *and re-checks the condition*
inside the effect of a single store µop, and the signaller both updates
the value and wakes any registered waiter inside the effect of its store.
Effects execute one at a time in the simulation loop, so exactly one of
the two orders happens and in both the sleeper is woken; an IPI that
races the halt entry is latched by the core (``wake_pending``).
Conditions are monotonic counters, so a stale sample can only delay an
exit, never fabricate one.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterator, Optional

from repro.common.addrspace import AddressSpace
from repro.isa.instr import Instr
from repro.isa.opcodes import Op
from repro.isa.registers import R
from repro.runtime.program import ThreadAPI

# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_NOP, _ISUB, _BRANCH = Op.NOP, Op.ISUB, Op.BRANCH
_ILOAD, _ISTORE, _PAUSE, _HALT = Op.ILOAD, Op.ISTORE, Op.PAUSE, Op.HALT

_uid = itertools.count()

#: Scratch registers used by sync sequences (kept away from workload regs).
_SPIN_REG = R(31)
_RMW_REG = R(30)
_DATA_REG = R(29)

#: Static site id stamped on all synchronization instructions, so the
#: profiler can exclude them ("not included in the profiling process").
SYNC_SITE = -1


class WaitMode(enum.Enum):
    """How a thread waits (the §3.1 tradeoff)."""

    SPIN = "spin"    # pause-equipped spin-wait loop
    HALT = "halt"    # relinquish partitions, sleep until IPI


class SyncVar:
    """A shared monotonic counter with a real simulated address."""

    def __init__(self, aspace: AddressSpace, name: Optional[str] = None,
                 value: int = 0):
        name = name or f"__sync{next(_uid)}"
        self.region = aspace.alloc(name, 8)
        self.addr = self.region.base
        self.value = value
        # tid -> wake callback for threads sleeping on this variable.
        self.waiters: dict[int, Callable[[], None]] = {}


def advance_var(var: SyncVar, api: ThreadAPI, new_value: Optional[int] = None,
                ) -> Iterator[Instr]:
    """Emit a store that publishes ``new_value`` (default: +1) and wakes
    any sleeping waiters when it retires."""

    def _publish():
        var.value = var.value + 1 if new_value is None else new_value
        if var.waiters:
            for wake in list(var.waiters.values()):
                wake()
            var.waiters.clear()

    yield Instr.store(var.addr, src=_DATA_REG, op=_ISTORE,
                      site=SYNC_SITE, effect=_publish)


def wait_ge(
    var: SyncVar,
    threshold: int,
    api: ThreadAPI,
    mode: WaitMode = WaitMode.SPIN,
    pause: bool = True,
) -> Iterator[Instr]:
    """Wait until ``var.value >= threshold``.

    SPIN mode emits the paper's pause-equipped spin-wait loop.  HALT mode
    puts the logical processor to sleep, releasing its statically
    partitioned resources to the sibling, and relies on the signaller's
    IPI — the "long duration wait loop" of §3.1.
    """
    sample = [None]
    spin = mode is WaitMode.SPIN

    def _sample_effect():
        sample[0] = var.value

    while True:
        yield Instr.load(var.addr, dst=_SPIN_REG, op=_ILOAD,
                         site=SYNC_SITE, effect=_sample_effect)
        yield Instr(_BRANCH, site=SYNC_SITE)
        if sample[0] is not None and sample[0] >= threshold:
            # Spin loops exit through a mispredicted branch / memory-order
            # violation: charge the flush penalty (§3.1).
            if spin:
                api.flush_self()
            return
        if spin:
            if pause:
                yield Instr(_PAUSE, site=SYNC_SITE)
        else:
            yield from _sleep(var, threshold, api)


def _sleep(var: SyncVar, threshold: int, api: ThreadAPI) -> Iterator[Instr]:
    """Register as a waiter, confirm, and halt; wake-race-free.

    The registration store's effect re-checks the condition, so the
    sleeper either (a) finds the condition already true and skips the
    halt, or (b) is registered before any future signaller's effect runs
    — and that effect will deliver the IPI.  An IPI racing the halt's
    retirement is latched by the core (``wake_pending``).
    """
    tid = api.tid
    registered = [False]
    already_true = [False]

    def _register():
        registered[0] = True
        if var.value >= threshold:
            already_true[0] = True
        else:
            var.waiters[tid] = lambda: api.wake(tid)

    yield Instr.store(var.addr, src=_DATA_REG, op=_ISTORE,
                      site=SYNC_SITE, effect=_register)
    while not registered[0]:
        yield Instr(_BRANCH, site=SYNC_SITE)
    if not already_true[0]:
        yield Instr(_HALT, site=SYNC_SITE)

    def _deregister():
        var.waiters.pop(tid, None)

    yield Instr(_NOP, site=SYNC_SITE, effect=_deregister)


def spin_until(
    predicate: Callable[[], bool],
    api: ThreadAPI,
    var: SyncVar,
    pause: bool = True,
) -> Iterator[Instr]:
    """Generic pause-equipped spin on an arbitrary predicate over shared
    state; samples by loading ``var`` (the variable the predicate reads)."""
    sample = [False]

    def _sample_effect():
        sample[0] = predicate()

    while True:
        yield Instr.load(var.addr, dst=_SPIN_REG, op=_ILOAD,
                         site=SYNC_SITE, effect=_sample_effect)
        yield Instr(_BRANCH, site=SYNC_SITE)
        if sample[0]:
            api.flush_self()
            return
        if pause:
            yield Instr(_PAUSE, site=SYNC_SITE)


class SenseBarrier:
    """Sense-reversing centralized barrier (Hennessy & Patterson §6.7,
    as cited by the paper).

    ``wait(api)`` emits: an atomic decrement of the arrival counter
    (load + add + store), then either the release broadcast (last
    arrival) or a wait on the sense variable.  ``mode`` selects spin or
    halt waiting; the paper uses halt only for "long duration" barriers.
    """

    def __init__(
        self,
        nthreads: int,
        aspace: AddressSpace,
        name: Optional[str] = None,
        mode: WaitMode = WaitMode.SPIN,
    ):
        name = name or f"__barrier{next(_uid)}"
        self.n = nthreads
        self.mode = mode
        self._count = SyncVar(aspace, name + ".count", value=nthreads)
        self._sense = SyncVar(aspace, name + ".sense", value=0)
        self._epoch: dict[int, int] = {}
        self.arrivals = 0  # total arrivals ever (for tests/stats)

    def wait(self, api: ThreadAPI) -> Iterator[Instr]:
        tid = api.tid
        epoch = self._epoch.get(tid, 0) + 1
        self._epoch[tid] = epoch
        decremented = [None]

        def _dec():
            self._count.value -= 1
            self.arrivals += 1
            decremented[0] = self._count.value

        # Atomic read-modify-write of the arrival counter.
        yield Instr.load(self._count.addr, dst=_RMW_REG, op=_ILOAD,
                         site=SYNC_SITE)
        yield Instr.arith(_ISUB, dst=_RMW_REG, src=_DATA_REG,
                          site=SYNC_SITE)
        yield Instr.store(self._count.addr, src=_RMW_REG, op=_ISTORE,
                          site=SYNC_SITE, effect=_dec)
        # The branch deciding last-vs-waiter needs the decremented value:
        # wait for our own store to retire.
        while decremented[0] is None:
            yield Instr(_BRANCH, site=SYNC_SITE)

        if decremented[0] == 0:
            # Last arrival: reset the counter and flip the sense,
            # releasing (and waking) the waiters.
            def _release():
                self._count.value = self.n
                self._sense.value = epoch
                if self._sense.waiters:
                    for wake in list(self._sense.waiters.values()):
                        wake()
                    self._sense.waiters.clear()

            yield Instr.store(self._sense.addr, src=_DATA_REG,
                              op=_ISTORE, site=SYNC_SITE, effect=_release)
        else:
            yield from wait_ge(self._sense, epoch, api, mode=self.mode)
