"""Static per-stream CPI bounds (llvm-mca-style, but interval-valued).

From the shape of a bounded symbolic unrolling of a stream (reusing
:func:`repro.check.hazards.stream_shape`), the machine's
:class:`~repro.cpu.config.CoreConfig`/:class:`~repro.cpu.config.OpTiming`
timings, and the issue-port map in :data:`repro.cpu.units.ROUTES`, this
module derives a provable interval ``[lower, upper]`` (cycles per
instruction) containing the simulated steady-state CPI:

* the **lower bound** is the max over independent throughput/latency
  limits — the weighted RAW-chain critical path (latency ticks along
  the longest dependence chain, divided by the window size), per-port
  interval pressure (including Hall-type bounds over unit subsets for
  multi-route opcodes), front-end fetch/alloc/retire bandwidth, the
  shared L2 port, and the store-commit drain;
* the **upper bound** is the sum of worst-case serialized costs — the
  chain term, the front end, per-op unit occupancy including sibling
  contention and thread-switch drain in dual-thread mode, the
  unprefetched memory path for the stream's new-line rate, and the
  shared store-commit interval.

Both ends carry a small relative measurement slack
(:data:`MODEL_SLACK`): the simulator measures CPI over a finite
post-warm-up window, so a marker/horizon boundary can shift the
measured value a percent or two off the asymptote (e.g. the solo
min-ILP idiv stream measures 47.98 cycles against an asymptotic chain
bound of exactly 48.0).

Every term is named; the *binding constraint* of the lower bound (the
term that sets it) is reported so a bound table reads as an
explanation — "fdiv: bound by non-pipelined divider interval 76t".

A bound is a pure function of its declared inputs — the stream spec,
the sibling, the window, the slack and the values of the two configs —
so each one is derived once per process and then looked up
(:func:`memoized`); every consumer (the oracle, the report sections,
``repro model``, ``repro check``, the pair certificates) shares it.  A
config left ``None`` is looked up by the default machine's value keys,
derived once per process (:func:`default_keys`), and every config key
carries its own hash (:class:`ConfigKey`): a lookup builds no config and
rehashes no field value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.check.hazards import (
    DEFAULT_WINDOW,
    StreamShape,
    as_shape,
    clear_shapes,
    stream_shape,
)
from repro.common.errors import ConfigError
from repro.cpu.config import CoreConfig
from repro.cpu.units import ROUTES
from repro.isa.instr import Instr
from repro.isa.opcodes import Op, is_load, is_mem, is_store
from repro.isa.streams import ILP, STREAM_OPS, StreamSpec
from repro.mem.config import MemConfig

#: Bumped on any change to the JSON bound layout, or to the bounds
#: themselves: it is part of every sweep-cell cache key, so a bump
#: invalidates the stored results the old model vouched for.
MODEL_SCHEMA_VERSION = 1

#: Relative finite-horizon measurement slack baked into emitted
#: intervals (lower is scaled down, upper up, by this fraction).
MODEL_SLACK = 0.02

#: The fig.-1 stream set the model reports by default: the 11 streams
#: the paper's §4 figure plots (isub/fsub duplicate iadd/fadd timings
#: and ilogic only appears in the §5.3 discussion).
MODEL_STREAMS: Tuple[str, ...] = (
    "iadd", "imul", "idiv", "iload", "istore",
    "fadd", "fmul", "fdiv", "fload", "fstore", "fadd-mul",
)


_T = TypeVar("_T")

#: The bounds-layer memo: CPI bounds, exclusive-demand tables and pair
#: envelopes, keyed by value (:func:`machine_keys`).  Unbounded: its keys
#: range over the stream set, the ILP levels and the configs one
#: process uses.
_MEMO: Dict[tuple, Any] = {}

#: One stored copy of each config key, so the memo's many keys share it.
_CONFIG_KEYS: Dict[tuple, "ConfigKey"] = {}


class ConfigKey(tuple):
    """A config's field values, as a tuple that hashes them once.

    CPython does not cache tuple hashes, and a core config's key nests
    an ``(Op, OpTiming)`` item per opcode: every dict lookup under a
    plain tuple key would rehash them all.  Equality stays the tuple's,
    by value, so a key built after :func:`clear_memo` still finds the
    entries stored under an equal one (``sweep/cells.py`` keeps its
    machine texts across a clear).  The stored hash is this process's
    (string hashes are salted per process), so a key never leaves it.
    """

    def __new__(cls, items: Any) -> "ConfigKey":
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash


def config_key(config: Any) -> ConfigKey:
    """A hashable key made of a config dataclass's field values.

    Dict fields (``CoreConfig.timings``) enter as sorted items.  The key
    is built from values, never ``id()``: ``CoreConfig`` is mutable
    (``unified_queues()`` sets ``partitioned`` after construction), so a
    config changed between two calls gets its own bound, and two equal
    configs share one.  Each call hashes the config's values once; the
    key it returns hashes in constant time in every later lookup.
    """
    key = ConfigKey(
        (f.name, tuple(sorted(v.items())) if isinstance(v, dict) else v)
        for f in fields(config) for v in (getattr(config, f.name),))
    return _CONFIG_KEYS.setdefault(key, key)


def memoized(key: tuple, derive: Callable[[], _T]) -> _T:
    """The value stored under ``key``, derived on first use.

    A derivation that raises stores nothing, so a
    :class:`~repro.common.errors.ConfigError` is raised again on every
    call.  Two threads missing the same key both derive it and store
    equal values, which is harmless.
    """
    value = _MEMO.get(key)
    if value is None:
        value = _MEMO[key] = derive()
    return value


@lru_cache(maxsize=None)
def default_keys() -> Tuple[ConfigKey, ConfigKey]:
    """The value keys of the default core and memory configs, derived
    once per process (the configs themselves are not kept)."""
    return config_key(CoreConfig()), config_key(MemConfig())


def machine_keys(core: Optional[CoreConfig],
                 mem: Optional[MemConfig]) -> Tuple[ConfigKey, ConfigKey]:
    """The value keys of a machine, ``None`` standing for a default
    part: a default part costs a lookup, never a config or a key."""
    default_core, default_mem = default_keys()
    return (default_core if core is None else config_key(core),
            default_mem if mem is None else config_key(mem))


def filled(core: Optional[CoreConfig],
           mem: Optional[MemConfig]) -> Tuple[CoreConfig, MemConfig]:
    """The machine, a fresh default config for each part left ``None``."""
    return (core if core is not None else CoreConfig(),
            mem if mem is not None else MemConfig())


def clear_memo() -> None:
    """Empty the bound memo, the default keys and the stream-shape memo
    beneath them."""
    _MEMO.clear()
    _CONFIG_KEYS.clear()
    default_keys.cache_clear()
    clear_shapes()


@dataclass(frozen=True)
class CPIBound:
    """A provable CPI interval for one stream in one TLP mode.

    ``lower``/``upper`` are in cycles per instruction (slack applied);
    ``binding`` names the constraint that sets the lower bound;
    ``lower_terms``/``upper_terms`` are the raw per-term values in
    ticks per instruction, pre-slack, for margin tracking; they are
    read-only, since one bound is shared by every caller.
    """

    stream: str
    ilp: ILP
    threads: int
    sibling: Optional[str]
    lower: float
    upper: float
    binding: str
    lower_terms: Mapping[str, float]
    upper_terms: Mapping[str, float]

    def contains(self, cpi: float, atol: float = 0.0) -> bool:
        return self.lower - atol <= cpi <= self.upper + atol

    def to_dict(self) -> dict:
        return {
            "stream": self.stream,
            "ilp": self.ilp.name,
            "threads": self.threads,
            "sibling": self.sibling,
            "lower_cpi": round(self.lower, 6),
            "upper_cpi": round(self.upper, 6),
            "binding": self.binding,
            "lower_terms_ticks": {k: round(v, 6)
                                  for k, v in self.lower_terms.items()},
            "upper_terms_ticks": {k: round(v, 6)
                                  for k, v in self.upper_terms.items()},
        }


def weighted_critical_path(instrs: Union[StreamShape, Sequence[Instr]],
                           cfg: CoreConfig) -> float:
    """Latency ticks along the longest RAW chain, per instruction.

    The unweighted variant lives in :func:`repro.check.hazards.chain_stats`;
    here each edge carries its producer's latency, so a serial chain of
    mixed ops (fadd-mul at min ILP) prices out to the mean of the two
    latencies rather than a hop count.
    """
    shape = as_shape(instrs)
    last_writer: Dict[int, int] = {}
    depth: List[float] = []
    for i, (op, srcs, dst) in enumerate(zip(shape.ops, shape.srcs,
                                            shape.dsts)):
        d = 0.0
        for src in srcs:
            w = last_writer.get(src)
            if w is not None and depth[w] > d:
                d = depth[w]
        timing = cfg.timings.get(op)
        lat = float(timing.latency) if timing is not None else 0.0
        depth.append(d + lat)
        if dst is not None:
            last_writer[dst] = i
    if not depth:
        return 0.0
    return max(depth) / len(depth)


def _unit_pressure_terms(mix: Mapping[Op, float],
                         cfg: CoreConfig) -> Dict[str, float]:
    """Per-port interval pressure, ticks per instruction.

    For each subset S of units that is the route of some opcode, every
    op whose route is contained in S *must* execute inside S, so S's
    units jointly spend at least (share x interval) summed over those
    ops; dividing by |S| gives a valid per-instruction throughput floor
    (a Hall-type counting bound — exact for single-unit routes).
    """
    route_sets: List[frozenset] = []
    for op in mix:
        rs = frozenset(ROUTES.get(op, ()))
        if rs and rs not in route_sets:
            route_sets.append(rs)
    # Unions of observed routes tighten mixed-route cases.
    candidates = list(route_sets)
    for i, a in enumerate(route_sets):
        for b in route_sets[i:]:
            u = a | b
            if u not in candidates:
                candidates.append(u)
    terms: Dict[str, float] = {}
    for subset in candidates:
        demand = 0.0
        for op, share in mix.items():
            timing = cfg.timings.get(op)
            if timing is None:
                continue
            route = frozenset(ROUTES.get(op, ()))
            if route and route <= subset:
                demand += share * timing.interval
        if demand <= 0.0:
            continue
        label = ("unit " + "+".join(sorted(subset))
                 if len(subset) > 1 else f"unit {next(iter(sorted(subset)))}")
        terms[label] = demand / len(subset)
    return terms


def _new_line_rate(spec: StreamSpec, mem: MemConfig) -> float:
    """Fraction of memory instructions touching a fresh cache line."""
    if not spec.is_memory:
        return 0.0
    return min(spec.stride / mem.line_size, 1.0)


def _shares(mix: Mapping[Op, float]) -> Tuple[float, float, float]:
    """(memory, load, store) instruction shares of the mix."""
    mem_share = sum(s for op, s in mix.items() if is_mem(op))
    load_share = sum(s for op, s in mix.items() if is_load(op))
    store_share = sum(s for op, s in mix.items() if is_store(op))
    return mem_share, load_share, store_share


def _sibling_mix(sibling: Optional[str],
                 ilp: ILP, window: int) -> Mapping[Op, float]:
    if sibling is None:
        return {}
    return stream_shape(StreamSpec(sibling, ilp=ilp), window).mix


def _sibling_units(mix: Mapping[Op, float],
                   cfg: CoreConfig) -> Dict[str, float]:
    """unit -> max initiation interval the sibling may hold it for."""
    occupancy: Dict[str, float] = {}
    for op in mix:
        timing = cfg.timings.get(op)
        if timing is None:
            continue
        for unit in ROUTES.get(op, ()):
            if timing.interval > occupancy.get(unit, 0.0):
                occupancy[unit] = float(timing.interval)
    return occupancy


def stream_bounds(
    spec_or_name,
    ilp: ILP = ILP.MAX,
    sibling: Optional[str] = None,
    core_config: Optional[CoreConfig] = None,
    mem_config: Optional[MemConfig] = None,
    window: int = DEFAULT_WINDOW,
    slack: float = MODEL_SLACK,
) -> CPIBound:
    """The provable CPI interval for one stream.

    ``sibling=None`` is the solo (single-thread) mode; naming a sibling
    stream gives the dual-thread bound for *this* stream co-executing
    with that sibling at the same ILP (the fig.-1 two-thread cells are
    the ``sibling == stream`` special case).  Derived once per process
    for each distinct set of inputs; the returned bound is shared.
    """
    if isinstance(spec_or_name, StreamSpec):
        spec = spec_or_name
    else:
        if spec_or_name not in STREAM_OPS:
            raise ConfigError(f"unknown stream {spec_or_name!r}; "
                              f"known: {sorted(STREAM_OPS)}")
        spec = StreamSpec(spec_or_name, ilp=ilp)
    if sibling is not None and sibling not in STREAM_OPS:
        raise ConfigError(f"unknown sibling stream {sibling!r}")
    key = ("bound", spec, sibling, window, slack,
           *machine_keys(core_config, mem_config))
    return memoized(key, lambda: _derive_bound(
        spec, sibling, *filled(core_config, mem_config), window, slack))


def _derive_bound(spec: StreamSpec, sibling: Optional[str],
                  cfg: CoreConfig, mem: MemConfig,
                  window: int, slack: float) -> CPIBound:
    shape = stream_shape(spec, window)
    mix = shape.mix
    missing = sorted(op.name for op in mix if op not in cfg.timings)
    if missing:
        raise ConfigError(f"stream {spec.name!r}: no OpTiming for {missing}")
    chain = weighted_critical_path(shape, cfg)
    mem_share, load_share, store_share = _shares(mix)
    line_rate = _new_line_rate(spec, mem)
    dual = sibling is not None
    sib_mix = _sibling_mix(sibling, spec.ilp, window)
    sib_units = _sibling_units(sib_mix, cfg)
    sib_mem = any(is_mem(op) for op in sib_mix)
    sib_store = any(is_store(op) for op in sib_mix)

    # ---- lower bound: max over independent throughput/latency floors.
    lower_terms: Dict[str, float] = {
        "raw-chain": chain,
        "fetch": cfg.fetch_interval / cfg.fetch_width,
        "alloc": cfg.alloc_interval / cfg.alloc_width,
        "retire": cfg.retire_interval / cfg.retire_width,
        "issue": 1.0 / cfg.issue_width,
    }
    lower_terms.update(_unit_pressure_terms(mix, cfg))
    if mem_share > 0.0 and line_rate > 0.0:
        # Every fresh line must at least initiate one access on the
        # single L2 port (the L1 cannot hold the streaming vector).
        lower_terms["l2-port"] = mem_share * line_rate * mem.l2_port_interval
    if store_share > 0.0:
        lower_terms["store-commit"] = store_share * cfg.store_commit_interval
    binding_name = max(lower_terms, key=lambda k: lower_terms[k])
    lower_ticks = lower_terms[binding_name]

    # ---- upper bound: sum of worst-case serialized costs.
    upper_terms: Dict[str, float] = {"raw-chain": chain}
    frontend = (cfg.fetch_interval / cfg.fetch_width
                + cfg.alloc_interval / cfg.alloc_width
                + cfg.retire_interval / cfg.retire_width)
    upper_terms["frontend"] = frontend * (2.0 if dual else 1.0)
    unit_serial = 0.0
    for op, share in mix.items():
        timing = cfg.timings[op]
        cost = float(timing.interval)
        if dual:
            route = ROUTES.get(op, ())
            sib_int = max((sib_units[u] for u in route if u in sib_units),
                          default=0.0)
            if sib_int > 0.0:
                # The sibling may hold every unit of the route, and both
                # directions of the context switch pay the drain penalty.
                cost += sib_int + cfg.unit_switch_penalty * (timing.interval
                                                            + sib_int)
        unit_serial += share * cost
    upper_terms["unit-serial"] = unit_serial
    if mem_share > 0.0 and line_rate > 0.0:
        miss_path = (mem.l1_latency + mem.l2_latency + mem.mem_latency
                     + mem.bus_occupancy + mem.l2_port_interval)
        upper_terms["mem"] = (mem_share * line_rate * miss_path
                              * (2.0 if dual and sib_mem else 1.0))
    if load_share > 0.0:
        upper_terms["load-use"] = load_share * mem.l1_latency
    if store_share > 0.0:
        upper_terms["store-commit"] = (
            store_share * cfg.store_commit_interval
            * (2.0 if dual and sib_store else 1.0))
    upper_ticks = sum(upper_terms.values())

    binding = _describe_binding(binding_name, lower_ticks, mix, cfg)
    return CPIBound(
        stream=spec.name,
        ilp=spec.ilp,
        threads=2 if dual else 1,
        sibling=sibling,
        lower=(lower_ticks / 2.0) * (1.0 - slack),
        upper=(upper_ticks / 2.0) * (1.0 + slack),
        binding=binding,
        lower_terms=MappingProxyType(lower_terms),
        upper_terms=MappingProxyType(upper_terms),
    )


def _describe_binding(name: str, ticks: float, mix: Mapping[Op, float],
                      cfg: CoreConfig) -> str:
    """Human phrasing of the binding lower-bound constraint."""
    if name == "raw-chain":
        return f"bound by RAW dependence-chain latency ({ticks:g}t/instr)"
    if name in ("fetch", "alloc", "retire"):
        width = getattr(cfg, f"{name}_width")
        interval = getattr(cfg, f"{name}_interval")
        return f"bound by {name} bandwidth ({width} uops/{interval}t)"
    if name == "issue":
        return f"bound by issue width ({cfg.issue_width}/tick)"
    if name == "l2-port":
        return "bound by the shared L2 port interval"
    if name == "store-commit":
        return (f"bound by store-commit drain "
                f"(1 store/{cfg.store_commit_interval}t)")
    if name.startswith("unit "):
        unit = name[len("unit "):]
        if unit == "fpdiv":
            for op in mix:
                timing = cfg.timings.get(op)
                if (timing is not None and "fpdiv" in ROUTES.get(op, ())
                        and timing.interval == timing.latency):
                    return (f"bound by non-pipelined divider interval "
                            f"{timing.interval}t")
        return f"bound by {unit} interval pressure ({ticks:g}t/instr)"
    return f"bound by {name} ({ticks:g}t/instr)"
