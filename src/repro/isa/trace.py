"""Compiled instruction traces for the §4 synthetic streams.

The stream generators in :mod:`repro.isa.streams` are tiny Python
generators: every µop costs a generator resumption plus a validating
``Instr`` constructor call.  For the homogeneous / fadd-mul streams the
emitted sequence is strictly periodic — register rotation repeats every
``lcm(|T|, |S|, |ops|)`` instructions and the memory walk is a sawtooth
of the byte offset — so the whole stream can be *compiled once* into a
small pattern table and replayed from a flat cursor:

* :class:`CompiledTrace` replays the pattern with a preallocated
  template per pattern slot, building each ``Instr`` without the
  constructor's validation (the pattern was validated at compile time);
* ``take(n)`` hands the core a whole fetch-batch in one call (no
  per-instruction generator resumption);
* ``skip(n)`` advances the cursor in O(1) — the hook the steady-state
  fast-forward (:mod:`repro.cpu.fastpath`) uses to teleport a thread's
  instruction source across k whole periods.

:class:`ChainedSource` splices traces and one-shot instructions (the
measurement marker) into a single iterator with the same protocol, and
exposes which compiled trace is currently feeding the core — the
fast-forward only engages when every thread is inside a compiled trace.

App workloads (mm/lu/cg/bt) are not periodic at the instruction level,
but they *are* recurrent at the tile level: the same per-tile pattern
replays with its region references shifted by one tile.  The workload
generators mark those boundaries by yielding :class:`PhaseMarker`
sentinels, and :func:`compile_tiled` records the instruction stream
into a :class:`TiledTrace` — a deduplicated table of per-phase patterns
whose memory operands are stored relative to the first address each
phase touches in its region.  That phase/reference factoring is what
lets the fast-forward fingerprint per-tile µarch state and extrapolate
whole tiles (see ``repro.cpu.fastpath``).

Exactness contract: for any :class:`~repro.isa.streams.StreamSpec`,
``compile_stream(spec, region)`` emits the byte-for-byte identical
instruction sequence as ``make_stream(spec, region)`` (property-tested
in ``tests/isa/test_trace.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import (Any, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.common.addrspace import Region
from repro.common.errors import ConfigError
from repro.isa.instr import EMPTY, Instr
from repro.isa.opcodes import Op, is_fp, is_store
from repro.isa.registers import F, R
from repro.isa.streams import StreamSpec

#: Opcodes that gate fetch when they enter the µop queue.  A compiled
#: trace must never contain one: the core's batched fetch path relies on
#: gate ops only ever arriving in single-instruction batches.
_GATE_OPS = frozenset({Op.PAUSE, Op.HALT})


class CompiledTrace:
    """A periodic instruction stream lowered to a flat pattern table.

    ``pattern`` holds one ``(op, dst, srcs)`` template per slot of the
    register-rotation period; instruction ``i`` of the stream uses
    template ``i % pattern_len``.  Memory traces additionally carry the
    sawtooth address walk: instruction ``i`` accesses
    ``base + (i % wrap_len) * stride``.
    """

    __slots__ = ("count", "pos", "pattern", "pattern_len", "site",
                 "is_memory", "base", "span", "stride", "wrap_len")

    def __init__(
        self,
        pattern: List[Tuple[Op, Optional[int], tuple]],
        count: int,
        site: int = 0,
        *,
        base: int = 0,
        span: int = 0,
        stride: int = 0,
    ):
        if not pattern:
            raise ConfigError("compiled trace needs a non-empty pattern")
        if count <= 0:
            raise ConfigError("compiled trace count must be positive")
        for op, _dst, _srcs in pattern:
            if op in _GATE_OPS:
                raise ConfigError(
                    f"{op.name} cannot appear in a compiled trace "
                    "(fetch-gating ops must arrive one at a time)"
                )
        self.pattern = tuple(pattern)
        self.pattern_len = len(self.pattern)
        self.count = count
        self.pos = 0
        self.site = site
        self.is_memory = span > 0
        self.base = base
        self.span = span
        self.stride = stride
        # Instructions per traversal of the region before the offset
        # wraps back to 0 (the generator's sawtooth period).
        self.wrap_len = -(-span // stride) if self.is_memory else 0

    # -- iterator protocol ---------------------------------------------

    def __iter__(self) -> Iterator[Instr]:
        return self

    def __next__(self) -> Instr:
        pos = self.pos
        if pos >= self.count:
            raise StopIteration
        self.pos = pos + 1
        op, dst, srcs = self.pattern[pos % self.pattern_len]
        ins = Instr.__new__(Instr)
        ins.op = op
        ins.dst = dst
        ins.srcs = srcs
        ins.addr = (self.base + (pos % self.wrap_len) * self.stride
                    if self.is_memory else None)
        ins.site = self.site
        ins.effect = None
        ins.thread = -1
        ins.seq = -1
        ins.deps = EMPTY
        ins.completed = False
        ins.issued = False
        return ins

    # -- batched / fast-forward protocol -------------------------------

    def take(self, n: int) -> List[Instr]:
        """Up to ``n`` next instructions as a list (empty = exhausted)."""
        pos = self.pos
        end = pos + n
        if end > self.count:
            end = self.count
        if end <= pos:
            return []
        pattern = self.pattern
        plen = self.pattern_len
        site = self.site
        new = Instr.__new__
        out: List[Instr] = []
        append = out.append
        if self.is_memory:
            base, stride, wrap = self.base, self.stride, self.wrap_len
            for i in range(pos, end):
                op, dst, srcs = pattern[i % plen]
                ins = new(Instr)
                ins.op = op
                ins.dst = dst
                ins.srcs = srcs
                ins.addr = base + (i % wrap) * stride
                ins.site = site
                ins.effect = None
                ins.thread = -1
                ins.seq = -1
                ins.deps = EMPTY
                ins.completed = False
                ins.issued = False
                append(ins)
        else:
            for i in range(pos, end):
                op, dst, srcs = pattern[i % plen]
                ins = new(Instr)
                ins.op = op
                ins.dst = dst
                ins.srcs = srcs
                ins.addr = None
                ins.site = site
                ins.effect = None
                ins.thread = -1
                ins.seq = -1
                ins.deps = EMPTY
                ins.completed = False
                ins.issued = False
                append(ins)
        self.pos = end
        return out

    def skip(self, n: int) -> None:
        """Advance the cursor ``n`` instructions in O(1) (fast-forward)."""
        if n < 0 or self.pos + n > self.count:
            raise ConfigError(
                f"cannot skip {n} instructions at pos {self.pos} "
                f"of {self.count}"
            )
        self.pos += n

    @property
    def remaining(self) -> int:
        return self.count - self.pos

    @property
    def offset(self) -> int:
        """Current byte offset of the sawtooth walk (memory traces)."""
        return (self.pos % self.wrap_len) * self.stride if self.is_memory else 0


class OneShot:
    """A single instruction spliced between traces (e.g. the steady-state
    measurement marker).  Exposes ``done`` so :class:`ChainedSource` can
    look past it once consumed without touching a live generator."""

    __slots__ = ("instr", "done")

    def __init__(self, instr: Instr):
        self.instr = instr
        self.done = False

    def __iter__(self) -> Iterator[Instr]:
        return self

    def __next__(self) -> Instr:
        if self.done:
            raise StopIteration
        self.done = True
        return self.instr


class ChainedSource:
    """Concatenation of instruction sources behind one iterator.

    Parts may be :class:`CompiledTrace`, :class:`OneShot`, or any
    iterator of :class:`Instr`.  ``take(n)`` batches only while the
    current part is a compiled trace; anything else is handed over one
    instruction at a time, which is what keeps fetch-gating ops exact
    on the core's batched path.
    """

    __slots__ = ("parts", "idx")

    def __init__(self, parts: Iterable[Union[CompiledTrace, OneShot,
                                             Iterator[Instr]]]):
        self.parts = list(parts)
        self.idx = 0

    def __iter__(self) -> Iterator[Instr]:
        return self

    def __next__(self) -> Instr:
        parts = self.parts
        while self.idx < len(parts):
            try:
                return next(parts[self.idx])
            except StopIteration:
                self.idx += 1
        raise StopIteration

    def take(self, n: int) -> List[Instr]:
        parts = self.parts
        while self.idx < len(parts):
            part = parts[self.idx]
            if type(part) is CompiledTrace:
                batch = part.take(n)
                if batch:
                    return batch
                self.idx += 1
                continue
            try:
                return [next(part)]
            except StopIteration:
                self.idx += 1
        return []

    def active_trace(self) -> Optional[Tuple[int, CompiledTrace]]:
        """The compiled trace currently feeding the core, if any.

        Returns ``(part_index, trace)`` when the next instruction will
        come from a compiled trace; ``None`` when a non-trace part is
        pending (marker not yet consumed, or a live generator) or the
        chain is exhausted.  Read-only: never consumes from a part.
        """
        parts = self.parts
        i = self.idx
        while i < len(parts):
            part = parts[i]
            if type(part) is CompiledTrace:
                if part.pos < part.count:
                    return (i, part)
                i += 1
            elif type(part) is OneShot:
                if part.done:
                    i += 1
                else:
                    return None
            else:
                return None
        return None


# ---------------------------------------------------------------------------
# Tiled app traces (phase markers)
# ---------------------------------------------------------------------------

class PhaseMarker:
    """Sentinel a workload generator yields at a tile/phase boundary.

    Markers are *hints*, never instructions: :func:`compile_tiled` uses
    them to split the recorded stream into phases, and the sync-heavy
    variants that cannot be recorded simply strip them before the core
    sees the stream.  ``tag`` widens the phase signature: two phases
    whose markers carry different tags never share a pattern id even
    when their instruction rows coincide (bt tags each sweep direction
    so cross-direction line phases cannot alias).  The default tag 0 is
    the shared module-level instance (:data:`PHASE`).
    """

    __slots__ = ("tag",)

    def __init__(self, tag: int = 0) -> None:
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseMarker({self.tag})"


#: The shared marker instance workload generators yield.
PHASE = PhaseMarker()


class TiledTrace:
    """An app workload recorded as deduplicated per-phase patterns.

    ``patterns[pid]`` is a tuple of ``(op, dst, srcs, site, region_idx,
    rel)`` rows; ``phases[i] = (pid, refs)`` names the pattern replayed
    as phase ``i`` together with one reference address per region —
    the first address the phase touches in that region (carried forward
    from the previous phase for untouched regions).  A row's absolute
    address is ``refs[region_idx] + rel``; non-memory rows store
    ``region_idx == -1``.

    The factoring is chosen for the fast-forward: two phases replaying
    the same pattern differ only by their reference vector, so a
    per-tile recurrence shows up as a constant per-region reference
    delta — exactly the shape the detector's linear line translation
    can extrapolate (:meth:`extrapolation_limit`).
    """

    __slots__ = ("count", "pos", "patterns", "phases", "starts",
                 "regions", "extents", "_rbases", "_rends", "_phase",
                 "cert")

    def __init__(
        self,
        patterns: Sequence[tuple],
        phases: Sequence[Tuple[int, tuple]],
        starts: Sequence[int],
        regions: Sequence[Region],
        extents: Sequence[tuple],
    ):
        if not phases:
            raise ConfigError("tiled trace needs at least one phase")
        self.patterns = tuple(patterns)
        self.phases = tuple(phases)
        self.starts = tuple(starts)
        self.regions = tuple(regions)
        self.extents = tuple(extents)
        self.count = self.starts[-1]
        self.pos = 0
        self._phase = 0
        # Optional static recurrence certificate (attached by
        # repro.check.recurrence.attach_certificate); the fast-forward
        # reads it as capture hints at arm time.  Typed loosely: the
        # certificate class lives in repro.check, which must stay
        # import-independent of the ISA layer.
        self.cert: Optional[Any] = None
        self._rbases = [r.base for r in self.regions]
        self._rends = [r.end for r in self.regions]

    # -- iterator protocol ---------------------------------------------

    def __iter__(self) -> Iterator[Instr]:
        return self

    def __next__(self) -> Instr:
        pos = self.pos
        if pos >= self.count:
            raise StopIteration
        starts = self.starts
        ph = self._phase
        while pos >= starts[ph + 1]:
            ph += 1
        self._phase = ph
        pid, refs = self.phases[ph]
        op, dst, srcs, site, ri, rel = self.patterns[pid][pos - starts[ph]]
        self.pos = pos + 1
        ins = Instr.__new__(Instr)
        ins.op = op
        ins.dst = dst
        ins.srcs = srcs
        ins.addr = refs[ri] + rel if ri >= 0 else None
        ins.site = site
        ins.effect = None
        ins.thread = -1
        ins.seq = -1
        ins.deps = EMPTY
        ins.completed = False
        ins.issued = False
        return ins

    # -- batched / fast-forward protocol -------------------------------

    def take(self, n: int) -> List[Instr]:
        """Up to ``n`` next instructions as a list (empty = exhausted)."""
        pos = self.pos
        end = pos + n
        if end > self.count:
            end = self.count
        if end <= pos:
            return []
        starts = self.starts
        phases = self.phases
        patterns = self.patterns
        ph = self._phase
        new = Instr.__new__
        out: List[Instr] = []
        append = out.append
        while pos < end:
            while pos >= starts[ph + 1]:
                ph += 1
            pid, refs = phases[ph]
            pattern = patterns[pid]
            base_pos = starts[ph]
            stop = min(end, starts[ph + 1])
            for i in range(pos, stop):
                op, dst, srcs, site, ri, rel = pattern[i - base_pos]
                ins = new(Instr)
                ins.op = op
                ins.dst = dst
                ins.srcs = srcs
                ins.addr = refs[ri] + rel if ri >= 0 else None
                ins.site = site
                ins.effect = None
                ins.thread = -1
                ins.seq = -1
                ins.deps = EMPTY
                ins.completed = False
                ins.issued = False
                append(ins)
            pos = stop
        self.pos = pos
        self._phase = ph
        return out

    def skip(self, n: int) -> None:
        """Advance the cursor ``n`` instructions in O(log phases)."""
        if n < 0 or self.pos + n > self.count:
            raise ConfigError(
                f"cannot skip {n} instructions at pos {self.pos} "
                f"of {self.count}"
            )
        self.pos += n
        self._phase = self.phase_of(self.pos)

    @property
    def remaining(self) -> int:
        return self.count - self.pos

    # -- detector accessors ---------------------------------------------

    def phase_of(self, pos: int) -> int:
        """Phase index containing position ``pos`` (clamped at the end)."""
        ph = bisect_right(self.starts, pos) - 1
        return min(ph, len(self.phases) - 1)

    def region_of(self, addr: int) -> int:
        """Index of the region owning ``addr``, or -1 if unmapped."""
        i = bisect_right(self._rbases, addr) - 1
        if i >= 0 and addr < self._rends[i]:
            return i
        return -1

    def extrapolation_limit(self, ph1: int, ph2: int, deltas: tuple,
                            max_k: int, guard_bytes: int) -> int:
        """Largest ``k <= max_k`` whole recurrences provable from the
        recorded schedule.

        A capture pair at phases ``ph1 < ph2`` with per-region reference
        deltas ``deltas`` extrapolates ``k`` recurrences soundly only if
        the future schedule keeps repeating with the *same* shift:
        for every ``j in [1, k*(ph2-ph1)]`` phase ``ph1+j`` and
        ``ph2+j`` must replay the same pattern with reference deltas
        exactly ``deltas`` (telescoping then covers every intermediate
        period), and every moving region's working set through the
        extrapolated window must stay ``guard_bytes`` clear of the
        region's top edge — the hardware prefetcher overshoots the
        demand stream, and the linear line translation only commutes
        with the cache dynamics while the overshoot stays in-region.
        """
        return self.extrapolation_limit_with_break(
            ph1, ph2, deltas, max_k, guard_bytes)[0]

    def extrapolation_limit_with_break(self, ph1: int, ph2: int,
                                       deltas: tuple, max_k: int,
                                       guard_bytes: int
                                       ) -> Tuple[int, int]:
        """:meth:`extrapolation_limit` plus *where* the schedule broke.

        Returns ``(k, break_phase)``: ``k`` as above, and the first
        phase index the extrapolation must not enter (a guard trip or
        a pattern/delta break), or ``-1`` when the scan exhausted the
        budget or the trace without breaking.  The break phase is the
        certified splice window: a fast-forward that slept past the
        corresponding tick may resume capturing immediately instead of
        re-probing the guarded chunk one short sleep at a time.
        """
        dphase = ph2 - ph1
        phases = self.phases
        nph = len(phases)
        rends = self._rends
        extents = self.extents
        need = max_k * dphase
        good = 0
        brk = -1
        j = 1
        while j <= need:
            b = ph2 + j
            if b >= nph:
                break
            pa, ra = phases[ph1 + j]
            pb, rb = phases[b]
            if pa != pb:
                brk = b
                break
            ok = True
            for r, d in enumerate(deltas):
                if rb[r] - ra[r] != d:
                    ok = False
                    break
            if ok:
                pid_prev, rprev = phases[b - 1]
                ext = extents[pid_prev]
                for r, d in enumerate(deltas):
                    e = ext[r]
                    if d and e is not None and (
                            rprev[r] + e[1] + guard_bytes >= rends[r]):
                        ok = False
                        break
            if not ok:
                brk = b
                break
            good = j
            j += 1
        return good // dphase, brk


def compile_tiled(source: Iterable, regions: Sequence[Region]) -> TiledTrace:
    """Record a marker-annotated instruction stream into a
    :class:`TiledTrace`.

    ``source`` yields :class:`Instr` objects interleaved with
    :class:`PhaseMarker` sentinels; ``regions`` are the address-space
    regions the workload touches.  Recording is *exact*: replaying the
    trace produces the byte-for-byte identical instruction sequence
    (markers excluded — they were never instructions).  Streams that
    cannot be replayed from a flat table — synchronization effects,
    fetch-gating ops, addresses outside the declared regions — are
    rejected with :class:`ConfigError` so callers fall back to the live
    generator (and the fast-forward stands down instead of guessing).
    """
    regions = tuple(sorted(regions, key=lambda r: r.base))
    rbases = [r.base for r in regions]
    rends = [r.end for r in regions]
    nregions = len(regions)

    # A marker's tag applies to the instructions *following* it (the
    # phase it opens); instructions before any marker carry tag 0.
    groups: List[List[Instr]] = []
    tags: List[int] = []
    cur: List[Instr] = []
    cur_tag = 0
    for item in source:
        if type(item) is PhaseMarker:
            if cur:
                groups.append(cur)
                tags.append(cur_tag)
                cur = []
            cur_tag = item.tag
            continue
        cur.append(item)
    if cur:
        groups.append(cur)
        tags.append(cur_tag)
    if not groups:
        raise ConfigError("tiled trace recorded no instructions")

    pattern_ids: dict = {}
    patterns: List[tuple] = []
    extents: List[tuple] = []
    phases: List[Tuple[int, tuple]] = []
    starts = [0]
    prev_refs = tuple(r.base for r in regions)

    for group, tag in zip(groups, tags):
        refs = list(prev_refs)
        seen = [False] * nregions
        rows: List[Tuple[Op, Optional[int], tuple, int, int, int]] = []
        for ins in group:
            if ins.effect is not None:
                raise ConfigError(
                    f"{ins.op.name} with a completion effect cannot be "
                    "recorded into a tiled trace"
                )
            if ins.op in _GATE_OPS:
                raise ConfigError(
                    f"{ins.op.name} cannot appear in a tiled trace "
                    "(fetch-gating ops must arrive one at a time)"
                )
            a = ins.addr
            if a is None:
                rows.append((ins.op, ins.dst, ins.srcs, ins.site, -1, 0))
                continue
            ri = bisect_right(rbases, a) - 1
            if ri < 0 or a >= rends[ri]:
                raise ConfigError(
                    f"address {a:#x} of {ins.op.name} is outside every "
                    "declared region"
                )
            if not seen[ri]:
                refs[ri] = a
                seen[ri] = True
            rows.append((ins.op, ins.dst, ins.srcs, ins.site, ri, a))
        refs_t = tuple(refs)
        pat = tuple(
            (op, dst, srcs, site, ri, (a - refs_t[ri]) if ri >= 0 else 0)
            for op, dst, srcs, site, ri, a in rows
        )
        # Dedup under the marker tag: identical rows recorded in
        # differently-tagged phases stay distinct patterns, so a
        # tagged sweep can never pair across signature boundaries.
        pid = pattern_ids.get((tag, pat))
        if pid is None:
            pid = len(patterns)
            pattern_ids[(tag, pat)] = pid
            patterns.append(pat)
            ext: List[Optional[Tuple[int, int]]] = [None] * nregions
            for _op, _dst, _srcs, _site, ri, rel in pat:
                if ri >= 0:
                    e = ext[ri]
                    ext[ri] = ((rel, rel) if e is None else
                               (min(e[0], rel), max(e[1], rel)))
            extents.append(tuple(ext))
        phases.append((pid, refs_t))
        starts.append(starts[-1] + len(pat))
        prev_refs = refs_t

    return TiledTrace(patterns, phases, starts, regions, extents)


# ---------------------------------------------------------------------------
# The stream compiler
# ---------------------------------------------------------------------------

def compile_stream(spec: StreamSpec,
                   region: Optional[Region] = None) -> CompiledTrace:
    """Lower one synthetic stream to a :class:`CompiledTrace`.

    Produces the byte-for-byte identical instruction sequence as
    ``make_stream(spec, region)`` — same opcode rotation, same
    two-operand source lists, same sawtooth address walk.
    """
    if spec.is_memory:
        if region is None:
            raise ConfigError(f"stream {spec.name!r} needs a memory region")
        return _compile_memory(spec, region)
    return _compile_arith(spec)


def _compile_arith(spec: StreamSpec) -> CompiledTrace:
    n_targets = spec.ilp.num_targets
    fp = is_fp(spec.ops[0])
    regs = F if fp else R
    targets = [regs(i) for i in range(n_targets)]
    sources = [regs(i) for i in range(8, 8 + 6)]
    ops = spec.ops
    plen = math.lcm(n_targets, len(sources), len(ops))
    pattern: List[Tuple[Op, Optional[int], tuple]] = []
    for i in range(plen):
        dst = targets[i % n_targets]
        src = sources[i % len(sources)]
        # Two-operand x86 semantics: dst is read and written
        # (Instr.arith lists it among the sources).
        pattern.append((ops[i % len(ops)], dst, (dst, src)))
    return CompiledTrace(pattern, spec.count, site=spec.site)


def _compile_memory(spec: StreamSpec, region: Region) -> CompiledTrace:
    op = spec.ops[0]
    n_targets = spec.ilp.num_targets
    fp = is_fp(op)
    regs = F if fp else R
    pattern: List[Tuple[Op, Optional[int], tuple]]
    if is_store(op):
        data_reg = regs(15)
        pattern = [(op, None, (data_reg,))]
    else:
        pattern = [(op, regs(i % n_targets), EMPTY)
                   for i in range(n_targets)]
    return CompiledTrace(pattern, spec.count, site=spec.site,
                         base=region.base, span=region.nbytes,
                         stride=spec.stride)
