"""Pairwise co-execution slowdown intervals (paper fig. 2).

The fig.-2 mechanism is shared-subunit contention: when both streams
route exclusively to the same single unit (one FP-execute unit, one
non-pipelined divider, logicals only on ALU0), co-execution serializes
their initiation intervals on it — plus the thread-switch drain the
scheduler pays when a busy unit changes hardware contexts.

:func:`pair_bounds` composes two dual-thread :class:`CPIBound`\\ s (each
stream bounded with the other as declared sibling) with the shared-unit
analysis of :func:`repro.check.units.pair_contention` into one
:class:`PairBound` whose slowdown intervals divide the dual CPI bounds
by the partner's solo bounds — a provable envelope for the paper's
"slowdown factor".  The joint utilization law (for every unit, the two
threads' mandatory interval demand cannot exceed one issue per tick of
wall time) is checked against *measured* CPIs by the oracle; the
per-unit demand table it needs is published here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.check.hazards import DEFAULT_WINDOW, stream_shape
from repro.cpu.config import CoreConfig
from repro.cpu.units import ROUTES
from repro.isa.streams import ILP, StreamSpec
from repro.mem.config import MemConfig
from repro.model.bounds import (
    MODEL_SLACK,
    CPIBound,
    filled,
    machine_keys,
    memoized,
    stream_bounds,
)


def exclusive_demand(name: str, ilp: ILP, cfg: Optional[CoreConfig] = None,
                     window: int = DEFAULT_WINDOW) -> Mapping[str, float]:
    """unit -> ticks of mandatory occupancy per instruction.

    Only single-route opcodes contribute: an op that can fall back to a
    second unit has no *provable* per-unit demand.  This is the demand
    table of the joint utilization law ``sum_t demand_u / CPI_t <= 1``.
    Derived once per process for each set of inputs, like a
    :class:`CPIBound`; the returned table is read-only.
    """
    key = ("demand", name, ilp, window, machine_keys(cfg, None)[0])
    return memoized(key, lambda: _derive_demand(
        name, ilp, cfg if cfg is not None else CoreConfig(), window))


def _derive_demand(name: str, ilp: ILP, cfg: CoreConfig,
                   window: int) -> Mapping[str, float]:
    mix = stream_shape(StreamSpec(name, ilp=ilp), window).mix
    demand: Dict[str, float] = {}
    for op, share in mix.items():
        route = ROUTES.get(op, ())
        timing = cfg.timings.get(op)
        if len(route) == 1 and timing is not None:
            unit = route[0]
            demand[unit] = demand.get(unit, 0.0) + share * timing.interval
    return MappingProxyType(demand)


@dataclass(frozen=True)
class PairBound:
    """CPI and slowdown intervals for one co-executed stream pair.

    ``demand_a``/``demand_b`` are the two streams' exclusive-demand
    tables (:func:`exclusive_demand`), the one source of the shared-unit
    set and of the joint utilization law's rows; :meth:`to_dict` leaves
    them out.
    """

    stream_a: str
    stream_b: str
    ilp: ILP
    solo_a: CPIBound
    solo_b: CPIBound
    dual_a: CPIBound
    dual_b: CPIBound
    demand_a: Mapping[str, float]
    demand_b: Mapping[str, float]

    @property
    def shared_units(self) -> Tuple[str, ...]:
        """Units both streams *must* use."""
        return tuple(sorted(u for u in self.demand_a if u in self.demand_b))

    def slowdown_a(self) -> Tuple[float, float]:
        """Provable [min, max] of dual_cpi_a / solo_cpi_a."""
        return (max(self.dual_a.lower / self.solo_a.upper, 0.0),
                self.dual_a.upper / self.solo_a.lower)

    def slowdown_b(self) -> Tuple[float, float]:
        return (max(self.dual_b.lower / self.solo_b.upper, 0.0),
                self.dual_b.upper / self.solo_b.lower)

    @property
    def binding(self) -> str:
        if self.shared_units:
            units = ", ".join(self.shared_units)
            note = (" (non-pipelined divider)"
                    if "fpdiv" in self.shared_units else "")
            return f"serializes on shared {units}{note}"
        return "no mandatory shared unit; front-end/queue sharing only"

    def to_dict(self) -> dict:
        lo_a, hi_a = self.slowdown_a()
        lo_b, hi_b = self.slowdown_b()
        return {
            "stream_a": self.stream_a,
            "stream_b": self.stream_b,
            "ilp": self.ilp.name,
            "a": self.dual_a.to_dict(),
            "b": self.dual_b.to_dict(),
            "solo_a": self.solo_a.to_dict(),
            "solo_b": self.solo_b.to_dict(),
            "shared_units": list(self.shared_units),
            "slowdown_a": [round(lo_a, 6), round(hi_a, 6)],
            "slowdown_b": [round(lo_b, 6), round(hi_b, 6)],
            "binding": self.binding,
        }


def pair_bounds(
    name_a: str,
    name_b: str,
    ilp: ILP = ILP.MAX,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    window: int = DEFAULT_WINDOW,
    slack: float = MODEL_SLACK,
) -> PairBound:
    """Bound both streams of a fig.-2 pair, solo and co-executed.

    Composed from the memoized stream bounds and demand tables, and
    itself memoized under the same inputs.
    """
    key = ("pair", name_a, name_b, ilp, window, slack,
           *machine_keys(core_config, mem_config))
    return memoized(key, lambda: _derive_pair(
        name_a, name_b, ilp, *filled(core_config, mem_config), window,
        slack))


def _derive_pair(name_a: str, name_b: str, ilp: ILP, cfg: CoreConfig,
                 mem: MemConfig, window: int, slack: float) -> PairBound:
    kw = dict(core_config=cfg, mem_config=mem, window=window, slack=slack)
    return PairBound(
        stream_a=name_a, stream_b=name_b, ilp=ilp,
        solo_a=stream_bounds(name_a, ilp=ilp, **kw),
        solo_b=stream_bounds(name_b, ilp=ilp, **kw),
        dual_a=stream_bounds(name_a, ilp=ilp, sibling=name_b, **kw),
        dual_b=stream_bounds(name_b, ilp=ilp, sibling=name_a, **kw),
        demand_a=exclusive_demand(name_a, ilp, cfg, window),
        demand_b=exclusive_demand(name_b, ilp, cfg, window),
    )
