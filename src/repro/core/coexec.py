"""Figure 2: pairwise co-execution slowdown factors.

The paper co-schedules every pair of streams *of the same ILP level* on
the two logical CPUs and reports, for each stream of the pair, the ratio
of its dual-threaded CPI to its single-threaded CPI ("slowdown factor").
A factor of 2.0 is reported in the paper's text as "100% slowdown".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError
from repro.cpu.config import CoreConfig
from repro.isa.streams import ILP, StreamSpec, STREAM_OPS
from repro.mem.config import MemConfig
from repro.runtime.program import Program
from repro.core.streams import (
    _ENDLESS,
    _VECTOR_BYTES,
    measure_stream_cpi,
    measured_stream_factory,
)

#: Measurement horizon for pair co-execution, in ticks: long enough that
#: the slowest stream's warm-up (a quarter vector traversal) finishes
#: and a solid steady-state sample remains.
PAIR_HORIZON_TICKS = 220_000

# Backwards-compatible alias (pre-sweep-engine name).
_PAIR_HORIZON_TICKS = PAIR_HORIZON_TICKS


@dataclass(frozen=True)
class CoexecResult:
    """Outcome of co-executing stream_a (cpu0) with stream_b (cpu1)."""

    stream_a: str
    stream_b: str
    ilp: ILP
    cpi_a: float
    cpi_b: float
    solo_cpi_a: float
    solo_cpi_b: float

    @property
    def slowdown_a(self) -> float:
        """Dual CPI of A over solo CPI of A (1.0 = unaffected)."""
        return self.cpi_a / self.solo_cpi_a

    @property
    def slowdown_b(self) -> float:
        return self.cpi_b / self.solo_cpi_b

    @property
    def slowdown_pct_a(self) -> float:
        """The paper's phrasing: '100% slowdown' == factor 2.0."""
        return (self.slowdown_a - 1.0) * 100.0

    @property
    def slowdown_pct_b(self) -> float:
        return (self.slowdown_b - 1.0) * 100.0


def run_pair_cpis(
    name_a: str,
    name_b: str,
    ilp: ILP,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    horizon_ticks: Optional[int] = None,
    fastpath: Optional[bool] = None,
) -> tuple[float, float]:
    """Co-execute the two streams; returns per-thread steady-state CPIs.

    The paper runs both streams continuously for ~10 s and reads the
    counters; equivalently, both threads here emit effectively endless
    streams and the machine stops at a fixed tick horizon.  Each
    thread's CPI is measured from its post-warm-up marker to the
    horizon, so warm-up asymmetry between a fast and a slow stream
    cannot pollute the measurement.
    """
    horizon = horizon_ticks or PAIR_HORIZON_TICKS
    prog = Program(core_config, mem_config, fastpath=fastpath)
    marks: dict[int, tuple[int, int]] = {}
    for t, name in enumerate((name_a, name_b)):
        spec = StreamSpec(name, ilp=ilp, count=_ENDLESS)
        region = None
        if spec.is_memory:
            region = prog.aspace.alloc(f"vec{t}", _VECTOR_BYTES, elem_size=1)
        prog.add_thread(measured_stream_factory(spec, region, prog, t, marks))
    # Stage the statically composed pair certificate (hints, never
    # authority: the fast-forward re-derives both lattices from the
    # actual traces at arm time and still proves every jump).  Only
    # when the fast-forward will actually arm — a staged hint must
    # never outlive this run and leak into an unrelated one.
    from repro.cpu import fastpath as _fastpath

    use_fp = _fastpath.default_enabled() if fastpath is None else fastpath
    if use_fp:
        from repro.check import compose as _compose

        _fastpath.attach_pair_certificate(_compose.cached_pair_certificate(
            name_a, name_b, ilp.name, _compose.mem_token(mem_config)))
    result = prog.run(stop_at_tick=horizon)
    cpis = []
    for t in range(2):
        if t not in marks:
            raise ConfigError(
                f"stream {t} did not reach steady state within the "
                f"measurement horizon"
            )
        mark_tick, mark_retired = marks[t]
        cycles = (result.ticks - mark_tick) / 2
        instrs = max(result.retired[t] - mark_retired, 1)
        cpis.append(cycles / instrs)
    return cpis[0], cpis[1]


def coexec_pair(
    name_a: str,
    name_b: str,
    ilp: ILP = ILP.MAX,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    _solo_cache: Optional[dict] = None,
) -> CoexecResult:
    """Measure the co-execution slowdown of one stream pair."""
    for name in (name_a, name_b):
        if name not in STREAM_OPS:
            raise ConfigError(f"unknown stream {name!r}")

    def solo(name: str) -> float:
        if _solo_cache is not None and (name, ilp) in _solo_cache:
            return _solo_cache[(name, ilp)]
        cpi = measure_stream_cpi(
            name, ilp=ilp, threads=1,
            core_config=core_config, mem_config=mem_config,
        ).cpi
        if _solo_cache is not None:
            _solo_cache[(name, ilp)] = cpi
        return cpi

    cpi_a, cpi_b = run_pair_cpis(name_a, name_b, ilp,
                                 core_config=core_config,
                                 mem_config=mem_config)
    return CoexecResult(
        stream_a=name_a,
        stream_b=name_b,
        ilp=ilp,
        cpi_a=cpi_a,
        cpi_b=cpi_b,
        solo_cpi_a=solo(name_a),
        solo_cpi_b=solo(name_b),
    )


#: Stream sets of the paper's figure 2 panels.
FIG2A_STREAMS = ("fadd", "fmul", "fdiv", "fload", "fstore")   # fp x fp
FIG2B_STREAMS = ("iadd", "imul", "idiv", "iload", "istore")   # int x int
FIG2C_PAIRS = tuple(
    (fp, i)
    for fp in ("fadd", "fmul", "fdiv")
    for i in ("iadd", "imul", "idiv")
)


def coexec_cells(
    pairs,
    ilp: ILP = ILP.MAX,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    solo_horizon_ticks: Optional[int] = None,
    pair_horizon_ticks: Optional[int] = None,
) -> tuple[list, list[tuple[str, str]], list[str]]:
    """Enumerate a pair sweep as cells: ``(cells, pairs, solos)``.

    One solo-baseline cell per distinct stream followed by one
    dual-thread cell per pair — the decomposition that makes the
    matrix finely cacheable.  ``pairs`` and ``solos`` name the cells'
    order so :func:`assemble_coexec` can reconstitute results.
    """
    from repro.sweep.cells import pair_cell, stream_cell

    pairs = [tuple(p) for p in pairs]
    for a, b in pairs:
        for name in (a, b):
            if name not in STREAM_OPS:
                raise ConfigError(f"unknown stream {name!r}")
    solos = list(dict.fromkeys(name for pair in pairs for name in pair))
    cells = [
        stream_cell(name, ilp, threads=1,
                    horizon_ticks=solo_horizon_ticks,
                    core_config=core_config, mem_config=mem_config)
        for name in solos
    ] + [
        pair_cell(a, b, ilp, horizon_ticks=pair_horizon_ticks,
                  core_config=core_config, mem_config=mem_config)
        for a, b in pairs
    ]
    return cells, pairs, solos


def assemble_coexec(pairs, ilp: ILP, solos: list[str],
                    results: list) -> list[CoexecResult]:
    """Fold raw cell results (solo CPIs then pair CPI tuples, in
    :func:`coexec_cells` order) into :class:`CoexecResult` rows."""
    solo_cpi = {name: r.cpi for name, r in zip(solos, results[:len(solos)])}
    return [
        CoexecResult(
            stream_a=a,
            stream_b=b,
            ilp=ilp,
            cpi_a=cpi_a,
            cpi_b=cpi_b,
            solo_cpi_a=solo_cpi[a],
            solo_cpi_b=solo_cpi[b],
        )
        for (a, b), (cpi_a, cpi_b) in zip(pairs, results[len(solos):])
    ]


def coexec_sweep(
    pairs,
    ilp: ILP = ILP.MAX,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    engine=None,
    solo_horizon_ticks: Optional[int] = None,
    pair_horizon_ticks: Optional[int] = None,
) -> list[CoexecResult]:
    """Measure an arbitrary list of stream pairs through the engine.

    The sweep decomposes into independently cacheable cells: one solo
    baseline per distinct stream plus one dual-thread cell per pair.
    After redefining a single stream only its baseline and the pairs
    containing it miss the cache — the rest of the matrix stays warm.
    """
    from repro.sweep.engine import SweepEngine

    cells, pairs, solos = coexec_cells(
        pairs, ilp=ilp, core_config=core_config, mem_config=mem_config,
        solo_horizon_ticks=solo_horizon_ticks,
        pair_horizon_ticks=pair_horizon_ticks)
    engine = engine or SweepEngine()
    return assemble_coexec(pairs, ilp, solos, engine.run(cells))


def _upper_pairs(streams) -> list[tuple[str, str]]:
    """All ordered-unique pairs (including self-pairs) from ``streams``."""
    return [(a, b) for i, a in enumerate(streams) for b in streams[i:]]


def fig2_panel_pairs(panel: str) -> list[tuple[str, str]]:
    """The stream pairs of one fig.-2 panel (shared by CLI and serve)."""
    if panel == "a":
        return _upper_pairs(FIG2A_STREAMS)
    if panel == "b":
        return _upper_pairs(FIG2B_STREAMS)
    if panel == "c":
        return list(FIG2C_PAIRS)
    raise ConfigError(f"unknown fig2 panel {panel!r}; have a, b, c")


def fig2_pairs() -> list[tuple[str, str]]:
    """The full fig.-2 pair inventory: fp x fp, int x int, fp x int."""
    return [pair for panel in "abc" for pair in fig2_panel_pairs(panel)]


def coexec_matrix(
    streams: tuple[str, ...],
    ilp: ILP = ILP.MAX,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    engine=None,
    solo_horizon_ticks: Optional[int] = None,
    pair_horizon_ticks: Optional[int] = None,
) -> list[CoexecResult]:
    """All ordered-unique pairs (including self-pairs) from ``streams``."""
    return coexec_sweep(_upper_pairs(streams), ilp=ilp, core_config=core_config,
                        mem_config=mem_config, engine=engine,
                        solo_horizon_ticks=solo_horizon_ticks,
                        pair_horizon_ticks=pair_horizon_ticks)
