"""Pass 1 — hazard/ILP verifier (paper §4, fig. 1).

The paper's synthetic streams tune ILP by rotating |T| disjoint target
registers through two-operand arithmetic (``dst <- dst op src``): each
target anchors one RAW dependence chain, so the *realized* ILP is the
number of independent chains the emitted instructions actually form.
This pass unrolls a bounded window of a stream and walks the RAW
dependences through ``Instr.dst``/``Instr.srcs``:

* the critical path ``L`` over ``N`` unrolled instructions gives the
  realized chain width ``N / L`` — exactly |T| when the stream is built
  correctly;
* ``realized < declared`` means accidental serialization (e.g. sources
  overlapping the target set, or every op writing one register);
* ``realized > declared`` means the chains were accidentally broken
  (e.g. a forgotten two-operand ``dst in srcs``, turning the stream
  into independent three-operand ops with no hazards to measure).

Load streams carry their ILP in the destination-register rotation (WAW
spacing — the scheduling window renames, but the paper's construction
still rotates |T| targets); store streams have no destination and are
exempt.  Everything is static: no simulator is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.check.findings import Finding, Severity
from repro.common.addrspace import AddressSpace
from repro.isa.instr import Instr
from repro.isa.opcodes import Op, is_load, is_mem
from repro.isa.streams import ILP, StreamSpec, make_stream

#: Unrolled-window length: divisible by every |T| (1, 3, 6) and stream
#: rotation (1 or 2 ops), long enough that warm-up edges vanish from
#: the width ratio.
DEFAULT_WINDOW = 240

#: Tolerance on realized-vs-declared chain width; rotations realize
#: integral widths, so anything beyond rounding noise is a defect.
_WIDTH_TOL = 0.05


@dataclass(frozen=True)
class ChainStats:
    """Dependence-chain shape of one unrolled instruction window."""

    instructions: int
    critical_path: int      # longest RAW chain, in instructions
    width: float            # instructions / critical_path
    distinct_targets: int   # |{dst}| over the window


@dataclass(frozen=True)
class StreamShape:
    """The dependence skeleton of an instruction window.

    Per instruction: its opcode, its source registers and its
    destination register (``None`` for stores); plus the read-only
    opcode mix, the fraction of the window each opcode contributes, in
    first-appearance order.  That is everything the static passes read
    of a window (the chain statistics here, the CPI bounds and unit
    demand of :mod:`repro.model`), so a shape holds no
    :class:`~repro.isa.instr.Instr` objects.
    """

    ops: Tuple[Op, ...]
    srcs: Tuple[Tuple[int, ...], ...]
    dsts: Tuple[Optional[int], ...]
    mix: Mapping[Op, float]

    @classmethod
    def of(cls, instrs: Sequence[Instr]) -> "StreamShape":
        ops: List[Op] = []
        srcs: List[Tuple[int, ...]] = []
        dsts: List[Optional[int]] = []
        counts: Dict[Op, int] = {}
        # A register rotation repeats a few source tuples; store each once.
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for ins in instrs:
            ops.append(ins.op)
            s = tuple(ins.srcs)
            srcs.append(shared.setdefault(s, s))
            dsts.append(ins.dst)
            counts[ins.op] = counts.get(ins.op, 0) + 1
        n = len(ops)
        return cls(ops=tuple(ops), srcs=tuple(srcs), dsts=tuple(dsts),
                   mix=MappingProxyType({op: c / n
                                         for op, c in counts.items()}))


def as_shape(instrs: Union[StreamShape, Sequence[Instr]]) -> StreamShape:
    """``instrs`` itself if it is a shape, else the shape of the window."""
    return instrs if isinstance(instrs, StreamShape) else StreamShape.of(instrs)


def chain_stats(instrs: Union[StreamShape, Sequence[Instr]]) -> ChainStats:
    """RAW-chain statistics of an instruction window.

    ``depth[i]`` is the length of the longest dependence chain ending
    at instruction ``i``; the chain width is how many instructions run
    per critical-path step — the realized ILP.
    """
    shape = as_shape(instrs)
    last_writer: Dict[int, int] = {}
    depth: List[int] = []
    targets = set()
    for i, (srcs, dst) in enumerate(zip(shape.srcs, shape.dsts)):
        d = 0
        for src in srcs:
            w = last_writer.get(src)
            if w is not None and depth[w] > d:
                d = depth[w]
        depth.append(d + 1)
        if dst is not None:
            last_writer[dst] = i
            targets.add(dst)
    n = len(shape.ops)
    critical = max(depth) if depth else 0
    width = n / critical if critical else 0.0
    return ChainStats(instructions=n, critical_path=critical,
                      width=width, distinct_targets=len(targets))


def verify_instrs(
    name: str,
    instrs: Union[StreamShape, Sequence[Instr]],
    declared_ilp: int,
) -> List[Finding]:
    """Check that an instruction window realizes ``declared_ilp`` chains."""
    findings: List[Finding] = []
    if declared_ilp < 1:
        return [Finding(
            check="hazards", severity=Severity.ERROR, site=name,
            message=f"declared ILP {declared_ilp} is not positive",
            hint="|T| must be >= 1 (paper §4)",
        )]
    shape = as_shape(instrs)
    loads = any(is_load(op) for op in shape.mix)

    if shape.ops and not any(is_mem(op) for op in shape.mix):
        stats = chain_stats(shape)
        if stats.width < declared_ilp - _WIDTH_TOL:
            findings.append(Finding(
                check="hazards", severity=Severity.ERROR, site=name,
                message=(
                    f"declared ILP {declared_ilp} but realized chain width "
                    f"is {stats.width:.2f} ({stats.critical_path}-deep RAW "
                    f"chain over {stats.instructions} instructions) — the "
                    f"stream is accidentally serialized"
                ),
                hint=("rotate |T| disjoint target registers and keep the "
                      "source set S disjoint from T (paper §4)"),
                data={"declared": declared_ilp, "realized": stats.width,
                      "critical_path": stats.critical_path},
            ))
        elif stats.width > declared_ilp + _WIDTH_TOL:
            findings.append(Finding(
                check="hazards", severity=Severity.ERROR, site=name,
                message=(
                    f"declared ILP {declared_ilp} but realized chain width "
                    f"is {stats.width:.2f} — the dependence chains are "
                    f"broken (wider than |T|)"
                ),
                hint=("two-operand arithmetic must list dst among srcs "
                      "(use Instr.arith); without it there is no RAW chain "
                      "to measure"),
                data={"declared": declared_ilp, "realized": stats.width,
                      "critical_path": stats.critical_path},
            ))
    elif loads:
        stats = chain_stats(shape)
        if stats.distinct_targets != declared_ilp:
            findings.append(Finding(
                check="hazards", severity=Severity.ERROR, site=name,
                message=(
                    f"declared ILP {declared_ilp} but the load stream "
                    f"rotates {stats.distinct_targets} destination "
                    f"register(s)"
                ),
                hint="rotate exactly |T| destination registers (paper §4)",
                data={"declared": declared_ilp,
                      "distinct_targets": stats.distinct_targets},
            ))
    # Pure store streams have no destination rotation to verify.
    return findings


def unroll_stream(spec: StreamSpec, window: int = DEFAULT_WINDOW) -> List[Instr]:
    """Materialize a bounded window of a stream, scratch region included."""
    count = min(spec.count, window)
    bounded = StreamSpec(spec.name, ilp=spec.ilp, count=count,
                         stride=spec.stride, site=spec.site)
    region = None
    if spec.is_memory:
        scratch = AddressSpace()
        region = scratch.alloc("__check_vec", max(count * spec.stride, 64),
                               elem_size=1)
    return list(make_stream(bounded, region))


def stream_shape(spec: StreamSpec, window: int = DEFAULT_WINDOW) -> StreamShape:
    """The shape of a stream's bounded window, computed once per process.

    A shape is a pure function of the stream's name, ILP level and
    unrolled length: stride, site and the scratch region move only
    addresses and site tags, which a shape does not hold.  So that
    triple is the memo key, and every static pass that unrolls the
    same stream shares one shape.
    """
    return _shape(spec.name, spec.ilp, min(spec.count, window))


@lru_cache(maxsize=None)
def _shape(name: str, ilp: ILP, count: int) -> StreamShape:
    return StreamShape.of(unroll_stream(StreamSpec(name, ilp=ilp, count=count),
                                        count))


def clear_shapes() -> None:
    """Empty the stream-shape memo."""
    _shape.cache_clear()


def verify_stream(
    spec: StreamSpec,
    window: int = DEFAULT_WINDOW,
    declared_ilp: Optional[int] = None,
) -> List[Finding]:
    """Verify one :class:`StreamSpec`'s declared ILP against its chains."""
    declared = declared_ilp if declared_ilp is not None else spec.ilp.num_targets
    name = f"stream {spec.name!r} ({spec.ilp.name} ILP)"
    return verify_instrs(name, stream_shape(spec, window), declared)
