"""Shared workload infrastructure: variants, blocked array layouts,
register conventions, and the standard build product.

Blocked array layouts
---------------------
The paper's MM/LU kernels store matrices tile-contiguously and compute
element addresses with the binary masks of Athanasaki & Koziris's "Fast
Indexing for Blocked Array Layouts" (their ref. [2]) — the source of the
~25% logical-instruction share in MM's Table-1 mix.  For an n x n matrix
of 8-byte elements with tile size T (both powers of two)::

    offset(i, j) = ((i >> lt) * (n >> lt) + (j >> lt)) * T*T
                 + ((i & (T-1)) << lt) + (j & (T-1))

The emitted address calculation is a short dependent chain of logical
(mask/shift) and add µops feeding the load — so ALU0 contention between
sibling threads delays the loads behind it, which is exactly the
mechanism the paper blames for the MM TLP slowdown (§5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.common.addrspace import AddressSpace, Region
from repro.common.errors import ConfigError
from repro.isa.instr import Instr
from repro.isa.opcodes import Op
from repro.isa.registers import F, R
from repro.isa.trace import PhaseMarker, compile_tiled


class Variant(enum.Enum):
    """Parallelization schemes evaluated in §5, plus the scheme the
    paper's conclusion recommends but never builds (SW_PREFETCH:
    "embodying SPR in the working thread ... combines low number of
    µops with reduced cache misses and achieves best performance")."""

    SERIAL = "serial"
    TLP_FINE = "tlp-fine"
    TLP_COARSE = "tlp-coarse"
    TLP_PFETCH = "tlp-pfetch"
    TLP_PFETCH_WORK = "tlp-pfetch+work"
    SW_PREFETCH = "sw-pfetch"


# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_IADD, _ILOGIC, _PREFETCH = Op.IADD, Op.ILOGIC, Op.PREFETCH
_FLOAD, _FSTORE = Op.FLOAD, Op.FSTORE

#: Register conventions shared by all workloads (sync owns R29-R31).
IDX = [R(0), R(1), R(2), R(3)]        # address-computation chain
ACC = [F(0), F(1), F(2), F(3)]        # fp accumulators
VAL = [F(4), F(5), F(6), F(7)]        # fp temporaries
PTR = [R(8), R(9), R(10)]             # base/induction registers
PF_DST = [F(14), F(15)]               # prefetch targets (value discarded)

#: Site-id blocks: each workload numbers its static load/store sites
#: within its own hundred so delinquency reports are self-describing.
SITE_BLOCKS = {"mm": 100, "lu": 200, "cg": 300, "bt": 400}


@dataclass
class WorkloadBuild:
    """The standard product of a workload's ``build(...)``: one thread
    factory per logical CPU, plus everything needed for analysis."""

    name: str
    variant: Variant
    factories: list  # list[Callable[[ThreadAPI], Iterator[Instr]]]
    aspace: AddressSpace
    reference_check: Callable[[], bool]
    meta: dict = field(default_factory=dict)

    @property
    def num_threads(self) -> int:
        return len(self.factories)


def strip_markers(stream: Iterator) -> Iterator[Instr]:
    """Drop :class:`PhaseMarker` hints from an instruction stream.

    Markers are pure detector hints — every consumer of an unrecorded
    stream (sync variants, race detection, mix profiling) must see the
    exact instruction sequence it saw before markers existed.
    """
    return (i for i in stream if type(i) is not PhaseMarker)


def tiled_factories(factories: list, regions: list, recordable: bool,
                    mem_config=None) -> list:
    """Wrap thread factories for the fast-forward's tile-level detector.

    ``recordable`` variants (pure instruction streams — no SyncVar or
    barrier effects) are compiled into a :class:`~repro.isa.trace.
    TiledTrace` at thread-bind time, turning each ``PhaseMarker`` into a
    phase boundary the detector can fingerprint, and statically
    certified (:mod:`repro.check.recurrence`) so the detector can skip
    its warmup where the certificate proves where recurrence lives.
    Variants with effects cannot be recorded (an effect must fire
    exactly when the pipeline retires it), so their markers are
    stripped instead — byte-identical to the pre-marker stream.
    """
    if recordable:
        from repro.check.recurrence import attach_certificate

        return [lambda api, f=f: attach_certificate(
                    compile_tiled(f(api), regions), mem_config)
                for f in factories]
    return [lambda api, f=f: strip_markers(f(api)) for f in factories]


class BlockedMatrix:
    """An n x n float64 matrix in blocked (tile-major) layout.

    Holds both the numpy values (for functional validation) and the
    simulated region (for addresses).
    """

    def __init__(self, aspace: AddressSpace, name: str, n: int, tile: int):
        if n <= 0 or n & (n - 1):
            raise ConfigError(f"matrix size must be a power of two, got {n}")
        if tile <= 0 or tile & (tile - 1) or tile > n:
            raise ConfigError(f"bad tile size {tile} for n={n}")
        self.n = n
        self.tile = tile
        self.tiles_per_side = n // tile
        self.data = np.zeros((n, n))
        self.region: Region = aspace.alloc_elems(name, n * n, elem_size=8)
        self.name = name

    # -- layout arithmetic --------------------------------------------

    def offset(self, i: int, j: int) -> int:
        """Element offset under the blocked layout (pure Python mirror
        of the emitted mask arithmetic)."""
        t = self.tile
        ti, tj = i // t, j // t
        li, lj = i % t, j % t
        return (ti * self.tiles_per_side + tj) * t * t + li * t + lj

    def addr(self, i: int, j: int) -> int:
        return self.region.addr_of(self.offset(i, j))

    def tile_base_addr(self, ti: int, tj: int) -> int:
        """Address of the first element of tile (ti, tj)."""
        t = self.tile
        return self.region.addr_of((ti * self.tiles_per_side + tj) * t * t)

    def tile_bytes(self) -> int:
        return self.tile * self.tile * 8

    def tile_view(self, ti: int, tj: int) -> np.ndarray:
        """Numpy view of one tile (functional computation happens here)."""
        t = self.tile
        return self.data[ti * t:(ti + 1) * t, tj * t:(tj + 1) * t]


def emit_blocked_index(
    dst: int,
    site: int,
    extra_logic: int = 1,
) -> Iterator[Instr]:
    """Emit the mask/shift chain of the fast blocked-layout indexing.

    Two logical ops (mask + combine) form the core; ``extra_logic`` adds
    more (the fine-grained TLP variants pay extra strided-index masking).
    The chain writes ``dst``, which the subsequent load lists among its
    sources, so contention-induced ALU0 delay propagates into the load.
    """
    yield Instr(_ILOGIC, dst=dst, srcs=(PTR[0],), site=site)
    for _ in range(extra_logic):
        yield Instr(_ILOGIC, dst=dst, srcs=(dst,), site=site)


def prefetch_lines(
    base_addr: int,
    nbytes: int,
    line_size: int,
    site: int,
    addr_cost: int = 1,
) -> Iterator[Instr]:
    """Emit the per-line prefetch loads of an SPR helper thread.

    ``addr_cost`` integer adds per line model the address computation;
    the MM prefetcher strides linearly (cheap), while the LU prefetcher
    recomputes blocked-layout addresses per element (expensive) — use
    :func:`prefetch_elements` for that.
    """
    for off in range(0, nbytes, line_size):
        for _ in range(addr_cost):
            yield Instr(_IADD, dst=IDX[3], srcs=(IDX[3],), site=site)
        deps = (IDX[3],) if addr_cost else ()
        yield Instr.load(base_addr + off, dst=PF_DST[0], op=_FLOAD,
                         site=site, srcs=deps)


def emit_sw_prefetch(
    base_addr: int,
    nbytes: int,
    line_size: int,
    site: int,
) -> Iterator[Instr]:
    """Inline non-blocking PREFETCH µops, one per line.

    Used by the ``SW_PREFETCH`` variants — the paper's concluding
    recommendation of "embodying SPR in the working thread".
    """
    for off in range(0, nbytes, line_size):
        yield Instr(_PREFETCH, addr=base_addr + off, site=site)


def prefetch_elements(
    base_addr: int,
    nbytes: int,
    elem_size: int,
    site: int,
    logic_cost: int = 2,
    reload: bool = True,
    store_every: int = 2,
) -> Iterator[Instr]:
    """Per-*element* prefetching with full address recomputation.

    This is the paper's LU prefetcher: "non-optimal data locality ...
    leads [the] prefetcher to execute a large number of instructions to
    compute the addresses of data to be brought in cache" — so its total
    instruction count rivals the worker's.  Its Table-1 column is
    ALU/LOAD/STORE-heavy (38/38/23%): ``reload`` adds the second load of
    the naive slice, and every ``store_every``-th element is touched
    with a prefetch-for-write store (the in-place update targets).
    """
    for k, off in enumerate(range(0, nbytes, elem_size)):
        for _ in range(logic_cost):
            yield Instr(_ILOGIC, dst=IDX[3], srcs=(IDX[3],), site=site)
        yield Instr(_IADD, dst=IDX[3], srcs=(IDX[3],), site=site)
        yield Instr.load(base_addr + off, dst=PF_DST[0], op=_FLOAD,
                         site=site, srcs=(IDX[3],))
        if reload:
            yield Instr.load(base_addr + off, dst=PF_DST[1], op=_FLOAD,
                             site=site)
        if store_every and k % store_every == 0:
            yield Instr.store(base_addr + off, op=_FSTORE, site=site)
