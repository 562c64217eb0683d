"""The micro-operation record flowing through the simulated core.

An :class:`Instr` is created once by a workload generator and then carries
the core's bookkeeping through its lifetime (fetch → allocate → issue →
complete → retire).  It deliberately uses ``__slots__``: simulations push
millions of these through the pipeline, and attribute-dict overhead would
dominate the run time (see the hpc-parallel guides: measure, then remove
the allocation hot spots).

Two-operand x86 semantics
-------------------------
The paper's synthetic streams tune ILP by rotating |T| target registers
(§4); the resulting dependence chains only exist because x86 arithmetic is
two-operand (``add src, dst`` reads *and* writes ``dst``).  Builders that
want that behaviour must therefore list the destination register among the
sources as well; :meth:`Instr.arith` does this automatically.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.isa.opcodes import Op, is_mem, is_store

EMPTY: tuple[int, ...] = ()

# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_PREFETCH = Op.PREFETCH


class Instr:
    """A single µop.

    Parameters
    ----------
    op:
        Opcode (:class:`~repro.isa.opcodes.Op`).
    dst:
        Destination register id, or ``None`` for stores/branches/nop.
    srcs:
        Tuple of source register ids (RAW dependencies).
    addr:
        Byte address for loads/stores, else ``None``.
    site:
        Static instruction-site id.  The profiling tools (the Pin and
        Valgrind stand-ins) aggregate dynamic events by site, exactly as
        the paper aggregates misses per delinquent load.
    effect:
        Optional callable invoked when the µop completes execution (for
        loads: when data returns; for stores: at retirement).  Used by the
        runtime to implement synchronization visibility and IPIs.
    """

    __slots__ = (
        "op",
        "dst",
        "srcs",
        "addr",
        "site",
        "effect",
        # --- core bookkeeping, assigned during simulation ---
        "thread",
        "seq",
        "deps",
        "completed",
        "issued",
        # --- issue-stage wake lists, assigned at allocate ---
        "pending",
        "waiters",
    )

    # ``deps`` starts as the shared empty tuple and is rebound by the
    # core to the in-flight ``Instr`` objects this µop waits on —
    # annotated loosely so both shapes type-check.
    deps: tuple
    # ``pending`` counts the entries of ``deps`` not yet completed;
    # ``waiters`` lists the allocated µops whose ``deps`` name this one
    # (``None`` when there are none, and again once it completes).
    pending: int
    waiters: Optional[list]

    def __init__(
        self,
        op: Op,
        dst: Optional[int] = None,
        srcs: tuple[int, ...] = EMPTY,
        addr: Optional[int] = None,
        site: int = 0,
        effect: Optional[Callable[[], None]] = None,
    ):
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.addr = addr
        self.site = site
        self.effect = effect
        self.thread = -1
        self.seq = -1
        self.deps = EMPTY
        self.completed = False
        self.issued = False
        if addr is None and (is_mem(op) or op is _PREFETCH):
            raise ValueError(f"{op.name} requires an address")
        if dst is None and not (is_store(op) or op in _NO_DST_OK):
            raise ValueError(f"{op.name} requires a destination register")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def arith(
        cls,
        op: Op,
        dst: int,
        src: int,
        site: int = 0,
        effect: Optional[Callable[[], None]] = None,
    ) -> "Instr":
        """Two-operand arithmetic: ``dst <- dst op src`` (x86 style)."""
        return cls(op, dst=dst, srcs=(dst, src), site=site, effect=effect)

    @classmethod
    def load(
        cls,
        addr: int,
        dst: int,
        op: Op = Op.FLOAD,
        srcs: tuple[int, ...] = EMPTY,
        site: int = 0,
        effect: Optional[Callable[[], None]] = None,
    ) -> "Instr":
        """Memory load into ``dst``; ``srcs`` are address-generation deps."""
        return cls(op, dst=dst, srcs=srcs, addr=addr, site=site, effect=effect)

    @classmethod
    def store(
        cls,
        addr: int,
        src: Optional[int] = None,
        op: Op = Op.FSTORE,
        site: int = 0,
        effect: Optional[Callable[[], None]] = None,
    ) -> "Instr":
        """Memory store of ``src`` (data dependency) to ``addr``."""
        srcs = (src,) if src is not None else EMPTY
        return cls(op, dst=None, srcs=srcs, addr=addr, site=site, effect=effect)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.name]
        if self.dst is not None:
            parts.append(f"d={self.dst}")
        if self.srcs:
            parts.append(f"s={self.srcs}")
        if self.addr is not None:
            parts.append(f"@{self.addr:#x}")
        return f"Instr({', '.join(parts)})"


_NO_DST_OK = frozenset({Op.NOP, Op.BRANCH, Op.PAUSE, Op.HALT, Op.PREFETCH})
