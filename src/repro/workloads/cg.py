"""NAS CG — conjugate gradient with random sparse structure (§5.2.i).

"CG solves an unstructured sparse linear system by the conjugate
gradient method.  The benchmark is characterized by random memory access
patterns."  The paper transforms the OpenMP C version into explicit
threading; we do the same over the simulator's threading runtime.

The kernel runs ``cg_iterations`` of the classic loop around a CSR
SpMV:  q = A p;  alpha = rho / (p.q);  z += alpha p;  r -= alpha q;
rho' = r.r;  beta = rho'/rho;  p = r + beta p.   The matrix pattern is
random (uniform column indices), so the SpMV's ``p[col]`` gather is the
delinquent load — the HW stream prefetcher gets no traction, which is
why CG, unlike MM/LU, stays memory-latency-bound and why its SPR helper
has real misses to hide.

Variants:

* ``serial``
* ``tlp-coarse``      — row blocks split between threads; partial-sum
  reductions and vector updates separated by sense-reversing barriers
  (~6 per CG iteration — the "frequent invocations of synchronization
  primitives" the paper blames for CG's SPR slowdown applies to its TLP
  overhead too: each thread executes more than half the serial work).
* ``tlp-pfetch``      — pure SPR: the helper walks the upcoming rows'
  ``colidx`` and gathers ``p[col]``, throttled by short spans (CG spans
  are small, so the paper keeps *spin* barriers here — halting this
  often would cost more than it frees).
* ``tlp-pfetch+work`` — hybrid: row blocks split as in tlp-coarse, and
  thread 1 additionally prefetches both threads' next row block.

Problem scale: NAS Class A is n=14000 with ~1.85M nonzeros (~130 per
row); scaled to n=224 with ~40 nnz/row and 3 CG iterations.  The scale
preserves the two cache relationships the paper's results hinge on: the
gathered vector fits L2 but not L1 (Class A: 112 KB vs 512 KB L2 / 8 KB
L1; here: 1.8 KB vs 4 KB L2 / 512 B L1), while the CSR arrays stream
far beyond L2 each iteration (documented in EXPERIMENTS.md).
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
from repro.isa.trace import PHASE
from repro.workloads.common import (
    ACC,
    IDX,
    PF_DST,
    PTR,
    SITE_BLOCKS,
    VAL,
    Variant,
    WorkloadBuild,
    tiled_factories,
)

# Enum members bound once at import (cpu/core.py, "Per-µop interpreter
# cost").
_IADD, _ILOGIC, _ILOAD, _BRANCH = Op.IADD, Op.ILOGIC, Op.ILOAD, Op.BRANCH
_FADD, _FMUL, _FDIV, _FMOVE = Op.FADD, Op.FMUL, Op.FDIV, Op.FMOVE
_FLOAD, _FSTORE = Op.FLOAD, Op.FSTORE

#: Only the serial stream is a pure instruction sequence; every TLP
#: variant carries barrier/sync effects and cannot be recorded.
_RECORDABLE = frozenset({Variant.SERIAL})

_BASE = SITE_BLOCKS["cg"]
SITE_LOAD_ROWPTR = _BASE + 1
SITE_LOAD_COLIDX = _BASE + 2
SITE_LOAD_AVAL = _BASE + 3
SITE_LOAD_GATHER = _BASE + 4   # p[col] — the delinquent load
SITE_VEC = _BASE + 5
SITE_STORE = _BASE + 6
SITE_PREFETCH = _BASE + 9

DEFAULT_N = 224
DEFAULT_NNZ_PER_ROW = 40
DEFAULT_ITERATIONS = 3


class _CGState:
    """CSR matrix + CG vectors, numpy-side and simulated-address-side."""

    def __init__(self, aspace: AddressSpace, n: int, nnz_per_row: int,
                 seed: int = 23):
        rng = np.random.default_rng(seed)
        self.n = n
        counts = rng.integers(nnz_per_row - 3, nnz_per_row + 4, size=n)
        self.rowptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.rowptr[1:])
        nnz = int(self.rowptr[-1])
        self.colidx = np.empty(nnz, dtype=np.int64)
        for i in range(n):
            lo, hi = self.rowptr[i], self.rowptr[i + 1]
            cols = rng.choice(n, size=hi - lo, replace=False)
            cols.sort()
            self.colidx[lo:hi] = cols
        self.aval = rng.standard_normal(nnz) * 0.1
        # Make A symmetric positive-definite-ish in effect by solving
        # with A^T A implicitly?  The NAS kernel itself just runs the CG
        # recurrence; convergence is not required for the recurrence to
        # be well-defined, but we keep A diagonally dominant so the
        # numbers stay finite.
        for i in range(n):
            lo, hi = self.rowptr[i], self.rowptr[i + 1]
            diag = np.where(self.colidx[lo:hi] == i)[0]
            if len(diag) == 0:
                # Force a diagonal entry: overwrite the first slot.
                self.colidx[lo] = i
                diag = np.array([0])
            self.aval[lo + diag[0]] = nnz_per_row + 1.0

        # Vectors.
        self.x = np.ones(n)
        self.z = np.zeros(n)
        self.r = self.x.copy()
        self.p = self.r.copy()
        self.q = np.zeros(n)
        self.rho = float(self.r @ self.r)

        # Simulated regions (element sizes match the C types).
        self.reg_rowptr = aspace.alloc_elems("cg.rowptr", n + 1, elem_size=4)
        self.reg_colidx = aspace.alloc_elems("cg.colidx", nnz, elem_size=4)
        self.reg_aval = aspace.alloc_elems("cg.a", nnz, elem_size=8)
        self.reg_p = aspace.alloc_elems("cg.p", n, elem_size=8)
        self.reg_q = aspace.alloc_elems("cg.q", n, elem_size=8)
        self.reg_r = aspace.alloc_elems("cg.r", n, elem_size=8)
        self.reg_z = aspace.alloc_elems("cg.z", n, elem_size=8)

        # Reference: run the same number of iterations densely.
        self.nnz = nnz

    def spmv_rows(self, lo: int, hi: int) -> None:
        for i in range(lo, hi):
            s, e = self.rowptr[i], self.rowptr[i + 1]
            self.q[i] = self.aval[s:e] @ self.p[self.colidx[s:e]]

    def reference(self, iterations: int) -> np.ndarray:
        """Dense recompute of the CG recurrence for validation."""
        import scipy.sparse as sp

        A = sp.csr_matrix(
            (self.aval, self.colidx, self.rowptr), shape=(self.n, self.n)
        )
        z = np.zeros(self.n)
        r = np.ones(self.n)
        p = r.copy()
        rho = float(r @ r)
        for _ in range(iterations):
            q = A @ p
            alpha = rho / float(p @ q)
            z = z + alpha * p
            r = r - alpha * q
            rho_new = float(r @ r)
            beta = rho_new / rho
            rho = rho_new
            p = r + beta * p
        return z


def _emit_spmv_row(state: _CGState, i: int,
                   tlp_overhead: bool = False) -> Iterator[Instr]:
    """SpMV for one row: the CSR gather loop.

    ``tlp_overhead`` adds the per-element bookkeeping of the threaded
    (OpenMP-translated) loop — per-thread cursors and bounds checks.
    The paper measures this directly: each CG TLP thread retires 7.07e9
    of the serial 11.93e9 instructions, i.e. ~19% *more* than half,
    "due to parallelization overhead".
    """
    s, e = int(state.rowptr[i]), int(state.rowptr[i + 1])
    yield Instr.load(state.reg_rowptr.addr_of(i), dst=IDX[1], op=_ILOAD,
                     site=SITE_LOAD_ROWPTR)
    for j in range(s, e):
        if tlp_overhead:
            yield Instr(_IADD, dst=PTR[1], srcs=(PTR[1],), site=_BASE)
            if j % 4 == 0:
                yield Instr.load(state.reg_rowptr.addr_of(i), dst=IDX[1],
                                 op=_ILOAD, site=SITE_LOAD_ROWPTR)
        col = int(state.colidx[j])
        # Load the column index, compute &p[col] from it, gather.
        yield Instr.load(state.reg_colidx.addr_of(j), dst=IDX[2],
                         op=_ILOAD, site=SITE_LOAD_COLIDX)
        # &p[col]: scale the index and add the base (translated OpenMP
        # code keeps the loop counter and bounds in integer registers).
        yield Instr(_ILOGIC, dst=IDX[2], srcs=(IDX[2],), site=_BASE)
        yield Instr(_IADD, dst=IDX[2], srcs=(IDX[2],), site=_BASE)
        yield Instr(_IADD, dst=IDX[0], srcs=(IDX[0],), site=_BASE)
        yield Instr.load(state.reg_aval.addr_of(j), dst=VAL[0],
                         op=_FLOAD, site=SITE_LOAD_AVAL)
        yield Instr.load(state.reg_p.addr_of(col), dst=VAL[1], op=_FLOAD,
                         srcs=(IDX[2],), site=SITE_LOAD_GATHER)
        yield Instr(_FMUL, dst=VAL[2], srcs=(VAL[0], VAL[1]), site=_BASE)
        yield Instr(_FMOVE, dst=VAL[0], srcs=(VAL[2],), site=_BASE)
        yield Instr(_FADD, dst=ACC[0], srcs=(ACC[0], VAL[2]), site=_BASE)
    yield Instr.store(state.reg_q.addr_of(i), src=ACC[0], op=_FSTORE,
                      site=SITE_STORE)
    yield Instr(_BRANCH, site=_BASE)


def _emit_vector_ops(state: _CGState, lo: int, hi: int) -> Iterator[Instr]:
    """The per-iteration vector work: two dots, two axpys, p update.

    Emitted as one fused pass per element (5 loads, mul/add pairs, the
    FP register moves of the translated OpenMP code, 3 stores) — the
    source of CG's high FP_MOVE share in Table 1.
    """
    for i in range(lo, hi):
        for reg, val in (("cg.p", VAL[0]), ("cg.q", VAL[1]),
                         ("cg.r", VAL[2]), ("cg.z", VAL[3]),
                         ("cg.r", ACC[1])):
            yield Instr.load(
                {"cg.p": state.reg_p, "cg.q": state.reg_q,
                 "cg.r": state.reg_r, "cg.z": state.reg_z}[reg].addr_of(i),
                dst=val, op=_FLOAD, site=SITE_VEC,
            )
        yield Instr(_FMUL, dst=ACC[0], srcs=(VAL[0], VAL[1]), site=_BASE)
        yield Instr(_FADD, dst=ACC[2], srcs=(ACC[2], ACC[0]), site=_BASE)
        yield Instr(_FMOVE, dst=VAL[0], srcs=(VAL[2],), site=_BASE)
        yield Instr(_FMOVE, dst=VAL[1], srcs=(VAL[3],), site=_BASE)
        yield Instr(_FMUL, dst=ACC[0], srcs=(VAL[0], VAL[2]), site=_BASE)
        yield Instr(_FADD, dst=ACC[3], srcs=(ACC[3], ACC[0]), site=_BASE)
        yield Instr(_FMOVE, dst=VAL[3], srcs=(ACC[0],), site=_BASE)
        yield Instr(_IADD, dst=IDX[0], srcs=(IDX[0],), site=_BASE)
        yield Instr.store(state.reg_z.addr_of(i), src=VAL[1], op=_FSTORE,
                          site=SITE_STORE)
        yield Instr.store(state.reg_r.addr_of(i), src=VAL[0], op=_FSTORE,
                          site=SITE_STORE)
        yield Instr.store(state.reg_p.addr_of(i), src=VAL[3], op=_FSTORE,
                          site=SITE_STORE)
        if i % 8 == 0:
            yield Instr(_BRANCH, site=_BASE)


def _functional_iteration(state: _CGState) -> None:
    """One full CG iteration, numpy-side."""
    state.spmv_rows(0, state.n)
    alpha = state.rho / float(state.p @ state.q)
    state.z += alpha * state.p
    state.r -= alpha * state.q
    rho_new = float(state.r @ state.r)
    beta = rho_new / state.rho
    state.rho = rho_new
    state.p = state.r + beta * state.p


def build(
    variant: Variant = Variant.SERIAL,
    n: int = DEFAULT_N,
    nnz_per_row: int = DEFAULT_NNZ_PER_ROW,
    iterations: int = DEFAULT_ITERATIONS,
    mem_config: Optional[MemConfig] = None,
    aspace: Optional[AddressSpace] = None,
) -> WorkloadBuild:
    """Construct the CG workload in the requested variant."""
    aspace = aspace or AddressSpace()
    state = _CGState(aspace, n, nnz_per_row)
    mem = mem_config or MemConfig()
    span_plan = None
    expected = state.reference(iterations)

    def check() -> bool:
        return bool(np.allclose(state.z, expected, atol=1e-8))

    if variant is Variant.SERIAL:
        def factory(api):
            for _ in range(iterations):
                for i in range(n):
                    yield PHASE
                    yield from _emit_spmv_row(state, i)
                yield PHASE
                yield from _emit_vector_ops(state, 0, n)
                _functional_iteration(state)

        factories = [factory]

    elif variant is Variant.TLP_COARSE:
        barrier = SenseBarrier(2, aspace, "cg.red")
        half = n // 2

        def make(tid):
            lo, hi = (0, half) if tid == 0 else (half, n)

            def factory(api):
                for _ in range(iterations):
                    for i in range(lo, hi):
                        yield from _emit_spmv_row(state, i,
                                                  tlp_overhead=True)
                    yield from barrier.wait(api)          # q complete
                    # Partial p.q + publish + combine (thread 0).
                    yield from _emit_partial_dot(state, lo, hi)
                    yield from barrier.wait(api)
                    if tid == 0:
                        yield from _emit_combine(state)
                        _functional_iteration(state)
                    yield from barrier.wait(api)          # alpha ready
                    yield from _emit_vector_ops(state, lo, hi)
                    yield from barrier.wait(api)          # rho reduction
                    yield from _emit_partial_dot(state, lo, hi)
                    yield from barrier.wait(api)
                    if tid == 0:
                        yield from _emit_combine(state)
                    yield from barrier.wait(api)          # beta ready

            return factory

        factories = [make(0), make(1)]

    elif variant in (Variant.TLP_PFETCH, Variant.TLP_PFETCH_WORK):
        hybrid = variant is Variant.TLP_PFETCH_WORK
        # Span = a block of rows whose SpMV footprint (row data + the
        # gathered p entries) is about L2/4.
        bytes_per_row = nnz_per_row * (4 + 8 + 8) + 12
        plan = span_plan = plan_spans(total_items=n,
                                      bytes_per_item=bytes_per_row,
                                      mem_config=mem)
        w_prog = SyncVar(aspace, "cg.w_prog", value=-1)
        barrier = SenseBarrier(2, aspace, "cg.red") if hybrid else None
        half = n // 2

        def emit_prefetch_rows(lo: int, hi: int) -> Iterator[Instr]:
            """The SPR slice: colidx load -> address calc -> gather."""
            for i in range(lo, hi):
                s, e = int(state.rowptr[i]), int(state.rowptr[i + 1])
                for j in range(s, e):
                    col = int(state.colidx[j])
                    yield Instr.load(state.reg_colidx.addr_of(j),
                                     dst=IDX[3], op=_ILOAD,
                                     site=SITE_PREFETCH)
                    # The slice keeps the whole address computation of
                    # the gather (paper Table 1: CG's spr column is
                    # ALU-dominated, ~50%).
                    yield Instr(_ILOGIC, dst=IDX[3], srcs=(IDX[3],),
                                site=SITE_PREFETCH)
                    yield Instr(_IADD, dst=IDX[3], srcs=(IDX[3],),
                                site=SITE_PREFETCH)
                    yield Instr(_IADD, dst=PTR[2], srcs=(PTR[2],),
                                site=SITE_PREFETCH)
                    yield Instr.load(state.reg_p.addr_of(col),
                                     dst=PF_DST[0], op=_FLOAD,
                                     srcs=(IDX[3],), site=SITE_PREFETCH)

        if not hybrid:
            def worker(api):
                for _ in range(iterations):
                    for i in range(n):
                        if i % plan.items_per_span == 0:
                            yield from advance_var(
                                w_prog, api, None)  # +1 per span
                        yield from _emit_spmv_row(state, i)
                    yield from _emit_vector_ops(state, 0, n)
                    _functional_iteration(state)

            def prefetcher(api):
                total_spans = plan.num_spans * iterations
                for s in range(total_spans):
                    yield from wait_ge(w_prog, s - plan.lookahead, api,
                                       mode=WaitMode.SPIN)
                    span_in_iter = s % plan.num_spans
                    lo = span_in_iter * plan.items_per_span
                    hi = min(lo + plan.items_per_span, n)
                    yield from emit_prefetch_rows(lo, hi)

            factories = [worker, prefetcher]
        else:
            def make(tid):
                lo, hi = (0, half) if tid == 0 else (half, n)

                def factory(api):
                    for _ in range(iterations):
                        for block_lo in range(lo, hi, plan.items_per_span):
                            block_hi = min(block_lo + plan.items_per_span, hi)
                            if tid == 1:
                                # The helper half also prefetches the
                                # *next* block for both threads.
                                nxt = min(block_hi + plan.items_per_span, n)
                                yield from emit_prefetch_rows(block_hi, nxt)
                            for i in range(block_lo, block_hi):
                                yield from _emit_spmv_row(
                                    state, i, tlp_overhead=True)
                        yield from barrier.wait(api)
                        yield from _emit_partial_dot(state, lo, hi)
                        yield from barrier.wait(api)
                        if tid == 0:
                            yield from _emit_combine(state)
                            _functional_iteration(state)
                        yield from barrier.wait(api)
                        yield from _emit_vector_ops(state, lo, hi)
                        yield from barrier.wait(api)

                return factory

            factories = [make(0), make(1)]

    else:
        raise ConfigError(f"CG does not implement {variant}")

    regions = [state.reg_rowptr, state.reg_colidx, state.reg_aval,
               state.reg_p, state.reg_q, state.reg_r, state.reg_z]
    return WorkloadBuild(
        name="cg",
        variant=variant,
        factories=tiled_factories(factories, regions,
                                  variant in _RECORDABLE, mem),
        aspace=aspace,
        reference_check=check,
        meta={
            "n": n,
            "nnz": state.nnz,
            "iterations": iterations,
            "worker_tid": 0,
            "span_plan": span_plan,
        },
    )


def _emit_partial_dot(state: _CGState, lo: int, hi: int) -> Iterator[Instr]:
    """Partial reduction over a row block (p.q or r.r)."""
    for i in range(lo, hi):
        yield Instr.load(state.reg_p.addr_of(i), dst=VAL[0], op=_FLOAD,
                         site=SITE_VEC)
        yield Instr.load(state.reg_q.addr_of(i), dst=VAL[1], op=_FLOAD,
                         site=SITE_VEC)
        yield Instr(_FMUL, dst=VAL[2], srcs=(VAL[0], VAL[1]), site=_BASE)
        yield Instr(_FADD, dst=ACC[0], srcs=(ACC[0], VAL[2]), site=_BASE)
        if i % 8 == 0:
            yield Instr(_BRANCH, site=_BASE)
    yield Instr.store(state.reg_q.addr_of(lo), src=ACC[0], op=_FSTORE,
                      site=SITE_STORE)


def _emit_combine(state: _CGState) -> Iterator[Instr]:
    """Thread 0 combines the two partial sums and derives alpha/beta."""
    yield Instr.load(state.reg_q.addr_of(0), dst=VAL[0], op=_FLOAD,
                     site=SITE_VEC)
    yield Instr.load(state.reg_q.addr_of(state.n // 2), dst=VAL[1],
                     op=_FLOAD, site=SITE_VEC)
    yield Instr(_FADD, dst=VAL[0], srcs=(VAL[0], VAL[1]), site=_BASE)
    yield Instr(_FDIV, dst=VAL[2], srcs=(VAL[2], VAL[0]), site=_BASE)
    yield Instr.store(state.reg_q.addr_of(0), src=VAL[2], op=_FSTORE,
                      site=SITE_STORE)
