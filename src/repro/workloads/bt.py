"""NAS BT — block-tridiagonal solver (paper §5.2.ii).

"BT solves block-tridiagonal systems of 5x5 blocks using the finite
differences method, and exhibits somewhat better data locality [than
CG]."  The kernel sweeps a 3D grid in the x, y and z directions; each
sweep solves, independently for every grid line, a block-tridiagonal
system whose 5x5 blocks couple the 5-variable cells along that line
(forward elimination + back substitution — the Thomas algorithm on
blocks).

Access-pattern character (what matters for the SMT study):

* x-sweep lines are contiguous in memory (cell blocks stream);
* y/z-sweep lines stride by a plane/row of cells, so the HW stream
  prefetcher gets little traction and real memory latency is exposed;
* the per-cell work is FP-rich (block matvecs: fmul/fadd), with FP
  moves and few integer ops — the Table-1 BT mix (ALUs ~8%, FP_ADD
  ~18%, FP_MUL ~22%, FP_MOVE ~10%, LOAD ~43%, STORE ~16%).

That combination — exposed latency plus assorted compute that pressures
no single unit — is exactly why BT is the paper's one TLP success
(~6% speedup): two threads interleave computation with each other's
memory stalls without fighting over ALU0 or the FP pipe.

Variants: ``serial``; ``tlp-coarse`` (grid lines of each sweep split
between the threads, one barrier per sweep — "perfect workload
partitioning"); ``tlp-pfetch`` (helper walks the next line's blocks;
because BT's solver *writes* its blocks and right-hand sides in place,
the slice issues prefetch-for-write stores too, giving the paper's
store-heavy SPR mix for BT).

Scale: NAS Class A is a 64^3 grid with 200 time steps; we run one
forward-elimination pass of each directional sweep on an 8^3 grid
(1:8 linear scale-down, documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.common.addrspace import AddressSpace
from repro.common.errors import ConfigError
from repro.isa.instr import Instr
from repro.isa.opcodes import Op
from repro.mem.config import MemConfig
from repro.runtime.sync import SenseBarrier, SyncVar, WaitMode, advance_var, wait_ge
from repro.spr.spans import plan_spans
from repro.isa.trace import PhaseMarker
from repro.workloads.common import (
    ACC,
    IDX,
    PF_DST,
    SITE_BLOCKS,
    VAL,
    Variant,
    WorkloadBuild,
    tiled_factories,
)

# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_IADD, _BRANCH = Op.IADD, Op.BRANCH
_FADD, _FSUB, _FMUL, _FMOVE = Op.FADD, Op.FSUB, Op.FMUL, Op.FMOVE
_FLOAD, _FSTORE = Op.FLOAD, Op.FSTORE

#: Only the serial stream is a pure instruction sequence; the TLP
#: variants carry barrier/sync effects and cannot be recorded.
_RECORDABLE = frozenset({Variant.SERIAL})

_BASE = SITE_BLOCKS["bt"]
SITE_LOAD_BLOCK = _BASE + 1
SITE_LOAD_RHS = _BASE + 2
SITE_STORE = _BASE + 3
SITE_PREFETCH = _BASE + 9

DEFAULT_GRID = 8
BLOCK = 5  # 5x5 blocks, 5-variable cells — fixed by the benchmark


class _BTState:
    """Grid-line block systems, numpy-side and simulated-address-side.

    For each direction d and line l, the system has ``N`` cells with
    lower/diag/upper 5x5 blocks and a 5-vector rhs.  Blocks live in one
    big array ordered so the *x* direction is memory-contiguous while y
    and z stride — reproducing BT's directional locality differences.
    """

    def __init__(self, aspace: AddressSpace, grid: int, seed: int = 31):
        rng = np.random.default_rng(seed)
        self.grid = n = grid
        ncells = n * n * n
        # Three block arrays (lower, diag, upper) + rhs + solution.
        self.lower = rng.standard_normal((ncells, BLOCK, BLOCK)) * 0.1
        self.diag = rng.standard_normal((ncells, BLOCK, BLOCK)) * 0.1
        self.upper = rng.standard_normal((ncells, BLOCK, BLOCK)) * 0.1
        self.diag += 4.0 * np.eye(BLOCK)  # diagonally dominant
        self.rhs = rng.standard_normal((ncells, BLOCK))
        self.solution = np.zeros((ncells, BLOCK))
        # Validation: every solve_line verifies its own residual at
        # solve time (later sweeps overwrite shared cells, so post-hoc
        # checking would compare against stale solutions).
        self.max_residual = 0.0
        self.lines_solved = 0

        bytes_per_block = BLOCK * BLOCK * 8
        self.reg_lower = aspace.alloc("bt.lower", ncells * bytes_per_block, 8)
        self.reg_diag = aspace.alloc("bt.diag", ncells * bytes_per_block, 8)
        self.reg_upper = aspace.alloc("bt.upper", ncells * bytes_per_block, 8)
        self.reg_rhs = aspace.alloc_elems("bt.rhs", ncells * BLOCK, 8)
        self._block_bytes = bytes_per_block

    # -- geometry ------------------------------------------------------

    def cell_index(self, direction: int, line: int, k: int) -> int:
        """Flat cell id of the k-th cell along `line` of `direction`.

        Cells are stored x-fastest, so direction 0 strides by 1,
        direction 1 by n, direction 2 by n^2.
        """
        n = self.grid
        if direction == 0:
            a, b = divmod(line, n)
            return (a * n + b) * n + k
        if direction == 1:
            a, b = divmod(line, n)
            return (a * n + k) * n + b
        a, b = divmod(line, n)
        return (k * n + a) * n + b

    def num_lines(self) -> int:
        return self.grid * self.grid

    def block_addr(self, which: str, cell: int) -> int:
        region = {"lower": self.reg_lower, "diag": self.reg_diag,
                  "upper": self.reg_upper}[which]
        return region.base + cell * self._block_bytes

    def rhs_addr(self, cell: int) -> int:
        return self.reg_rhs.addr_of(cell * BLOCK)

    # -- functional solve ------------------------------------------------

    def solve_line(self, direction: int, line: int) -> None:
        """Thomas algorithm on the line's block system (numpy), with an
        immediate residual self-check against the pre-solve blocks."""
        n = self.grid
        cells = [self.cell_index(direction, line, k) for k in range(n)]
        D = [self.diag[c].copy() for c in cells]
        R = [self.rhs[c].copy() for c in cells]
        for k in range(1, n):
            m = self.lower[cells[k]] @ np.linalg.inv(D[k - 1])
            D[k] = D[k] - m @ self.upper[cells[k - 1]]
            R[k] = R[k] - m @ R[k - 1]
        x = [np.zeros(BLOCK)] * n
        x[n - 1] = np.linalg.solve(D[n - 1], R[n - 1])
        for k in range(n - 2, -1, -1):
            x[k] = np.linalg.solve(
                D[k], R[k] - self.upper[cells[k]] @ x[k + 1]
            )
        for k, c in enumerate(cells):
            self.solution[c] = x[k]
            lhs = self.diag[c] @ x[k]
            if k > 0:
                lhs = lhs + self.lower[c] @ x[k - 1]
            if k < n - 1:
                lhs = lhs + self.upper[c] @ x[k + 1]
            resid = float(np.max(np.abs(lhs - self.rhs[c])))
            if resid > self.max_residual:
                self.max_residual = resid
        self.lines_solved += 1

    def check_line(self, direction: int, line: int) -> bool:
        """Residual check of one line's solve against original blocks."""
        n = self.grid
        cells = [self.cell_index(direction, line, k) for k in range(n)]
        for k in range(n):
            lhs = self.diag[cells[k]] @ self.solution[cells[k]]
            if k > 0:
                lhs = lhs + self.lower[cells[k]] @ self.solution[cells[k - 1]]
            if k < n - 1:
                lhs = lhs + self.upper[cells[k]] @ self.solution[cells[k + 1]]
            if not np.allclose(lhs, self.rhs[cells[k]], atol=1e-6):
                return False
        return True

    # -- trace emission ---------------------------------------------------

    def emit_cell(self, direction: int, line: int, k: int) -> Iterator[Instr]:
        """Forward-elimination work of one cell.

        Two block-matmul passes (m = L D^-1, then D -= m U / r -= m r)
        over the 5x5 blocks plus the rhs/diag write-back — BT's real
        compute density of several FP ops per loaded byte is what keeps
        the kernel from being purely memory-bound.
        """
        cell = self.cell_index(direction, line, k)
        lower_a = self.block_addr("lower", cell)
        diag_a = self.block_addr("diag", cell)
        upper_a = self.block_addr("upper", cell)
        rhs_a = self.rhs_addr(cell)
        for r in range(BLOCK):
            row_off = r * BLOCK * 8
            # Three block passes per row (m = L D^-1; D -= m U; r -= m r)
            # — BT's FP density of several ops per loaded byte.
            for src_a, src_b in ((lower_a, diag_a), (diag_a, upper_a),
                                 (lower_a, upper_a)):
                for c in range(BLOCK):
                    off = row_off + c * 8
                    yield Instr.load(src_a + off, dst=VAL[0], op=_FLOAD,
                                     site=SITE_LOAD_BLOCK)
                    yield Instr.load(src_b + off, dst=VAL[1], op=_FLOAD,
                                     site=SITE_LOAD_BLOCK)
                    yield Instr(_FMUL, dst=VAL[2], srcs=(VAL[0], VAL[1]),
                                site=_BASE)
                    yield Instr(_FADD, dst=ACC[0], srcs=(ACC[0], VAL[2]),
                                site=_BASE)
                    if c % 2 == 0:
                        yield Instr(_FMUL, dst=VAL[3],
                                    srcs=(VAL[1], VAL[2]), site=_BASE)
                    if c % 2 == 1:
                        yield Instr(_FMOVE, dst=ACC[1], srcs=(ACC[0],),
                                    site=_BASE)
                        yield Instr(_IADD, dst=IDX[1], srcs=(IDX[1],),
                                    site=_BASE)
            # Row results: update diag row and rhs entry.
            yield Instr(_FMOVE, dst=ACC[2], srcs=(ACC[0],), site=_BASE)
            yield Instr.load(rhs_a + r * 8, dst=ACC[3], op=_FLOAD,
                             site=SITE_LOAD_RHS)
            yield Instr(_FSUB, dst=ACC[3], srcs=(ACC[3], ACC[0]),
                        site=_BASE)
            yield Instr.store(rhs_a + r * 8, src=ACC[3], op=_FSTORE,
                              site=SITE_STORE)
            for c in range(0, BLOCK, 2):
                yield Instr.store(diag_a + row_off + c * 8, src=ACC[2],
                                  op=_FSTORE, site=SITE_STORE)
            yield Instr(_IADD, dst=IDX[0], srcs=(IDX[0],), site=_BASE)
        yield Instr(_BRANCH, site=_BASE)

    def emit_line(self, direction: int, line: int) -> Iterator[Instr]:
        for k in range(self.grid):
            yield from self.emit_cell(direction, line, k)


def build(
    variant: Variant = Variant.SERIAL,
    grid: int = DEFAULT_GRID,
    mem_config: Optional[MemConfig] = None,
    aspace: Optional[AddressSpace] = None,
) -> WorkloadBuild:
    """Construct the BT workload in the requested variant."""
    aspace = aspace or AddressSpace()
    state = _BTState(aspace, grid)
    mem = mem_config or MemConfig()
    span_plan = None
    nlines = state.num_lines()

    def check() -> bool:
        return (
            state.lines_solved == 3 * nlines
            and state.max_residual < 1e-6
        )

    if variant is Variant.SERIAL:
        def factory(api):
            # Tag each line phase with its sweep direction: the three
            # directional sweeps touch the grid through different
            # strides, and an untagged recording lets lines from
            # different sweeps alias into one pattern id whenever
            # their relative rows coincide — recurrence then pairs
            # across the sweep boundary where the delta structure is
            # not translation-sound.
            for d in range(3):
                marker = PhaseMarker(d)
                for line in range(nlines):
                    yield marker
                    state.solve_line(d, line)
                    yield from state.emit_line(d, line)

        factories = [factory]

    elif variant is Variant.TLP_COARSE:
        barrier = SenseBarrier(2, aspace, "bt.sweep")

        def make(tid):
            def factory(api):
                for d in range(3):
                    for line in range(nlines):
                        if line % 2 == tid:
                            state.solve_line(d, line)
                            yield from state.emit_line(d, line)
                    yield from barrier.wait(api)

            return factory

        factories = [make(0), make(1)]

    elif variant is Variant.TLP_PFETCH:
        # Spans are groups of *cells* (one cell's blocks = 640 B) sized
        # to the §3.2 footprint bound; prefetching whole grid lines
        # (5 KB > L2) would evict data before the worker consumed it.
        bytes_per_cell = (3 * BLOCK * BLOCK + BLOCK) * 8
        ncells_total = 3 * nlines * grid
        plan = span_plan = plan_spans(total_items=ncells_total,
                                      bytes_per_item=bytes_per_cell,
                                      mem_config=mem)
        w_prog = SyncVar(aspace, "bt.w_prog", value=-1)
        line_size = mem.line_size
        all_cells = [
            (d, line, k)
            for d in range(3)
            for line in range(nlines)
            for k in range(grid)
        ]

        def worker(api):
            item = 0
            last_span = -1
            for d in range(3):
                for line in range(nlines):
                    state.solve_line(d, line)
                    for k in range(grid):
                        span = plan.span_of(item)
                        if span != last_span:
                            yield from advance_var(w_prog, api, span)
                            last_span = span
                        item += 1
                        yield from state.emit_cell(d, line, k)

        def prefetcher(api):
            # BT's spans are short and frequent -> spin waits (§3.1:
            # halting is reserved for long-duration barriers).
            for s in range(plan.num_spans):
                yield from wait_ge(w_prog, s - plan.lookahead, api,
                                   mode=WaitMode.SPIN)
                lo = s * plan.items_per_span
                for (d, line, k) in all_cells[lo:lo + plan.items_per_span]:
                    cell = state.cell_index(d, line, k)
                    # Touch the blocks (reads) ...
                    for which in ("lower", "diag", "upper"):
                        base = state.block_addr(which, cell)
                        for off in range(0, BLOCK * BLOCK * 8, line_size):
                            yield Instr(_IADD, dst=IDX[3],
                                        srcs=(IDX[3],), site=SITE_PREFETCH)
                            yield Instr.load(base + off, dst=PF_DST[0],
                                             op=_FLOAD, srcs=(IDX[3],),
                                             site=SITE_PREFETCH)
                    # ... and prefetch-for-write the in-place rhs/diag
                    # destinations (BT's store-heavy spr mix, Table 1).
                    yield Instr.store(state.rhs_addr(cell), op=_FSTORE,
                                      site=SITE_PREFETCH)
                    diag = state.block_addr("diag", cell)
                    for off in range(0, BLOCK * BLOCK * 8, line_size * 2):
                        yield Instr.store(diag + off, op=_FSTORE,
                                          site=SITE_PREFETCH)

        factories = [worker, prefetcher]

    else:
        raise ConfigError(f"BT does not implement {variant}")

    regions = [state.reg_lower, state.reg_diag, state.reg_upper,
               state.reg_rhs]
    return WorkloadBuild(
        name="bt",
        variant=variant,
        factories=tiled_factories(factories, regions,
                                  variant in _RECORDABLE, mem),
        aspace=aspace,
        reference_check=check,
        meta={"grid": grid, "worker_tid": 0, "span_plan": span_plan},
    )
