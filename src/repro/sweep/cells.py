"""Sweep cells: self-contained, picklable units of measurement.

A :class:`SweepCell` is one cell of a paper figure/table — one
``(stream, ILP, threads)`` point of fig. 1, one co-executed pair of
fig. 2, one ``(app, variant, size)`` bar of figs. 3–5, one Table 1
column.  A cell carries everything needed to (a) execute it in a
worker process and (b) derive its content-addressed cache key:

* ``kind`` selects a :class:`CellRunner` from the registry below;
* ``config`` is a plain-JSON dict fully describing the measurement,
  including semantic fingerprints of the code it exercises (a stream's
  opcode recipe, a workload module's source digest) so that editing
  one stream or one workload invalidates exactly that stream's /
  app's cells and nothing else;
* optional ``core_config``/``mem_config`` override the simulated
  machine (their ``to_dict()`` forms are part of the key).

Runners also define the encode/decode pair that moves results across
process and cache boundaries as JSON.  The engine round-trips *every*
result — fresh or cached, serial or parallel — through the same
encoding, so all execution paths produce literally identical report
bytes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple

import repro
from repro.common.errors import ConfigError
from repro.sweep.keys import (CACHE_SCHEMA_VERSION, FASTPATH_SCHEMA_VERSION,
                              canonical_json)


@lru_cache(maxsize=None)
def _modules() -> SimpleNamespace:
    """The modules the keys, recipes, runners and decoders read,
    imported on first use and then held.

    A function-level ``import`` of a loaded module still costs about a
    microsecond, and a warm sweep derives hundreds of keys, recipes and
    decoded results.  None is imported at the top: ``repro.core``
    imports this module, and ``repro.check``/``repro.model`` would add
    to every CLI start-up.  Constants are read through the held module
    at each use, so a patched one is seen.
    """
    from repro.check import compose, recurrence
    from repro.core import apps, coexec, streams, table1
    from repro.isa import streams as isa_streams
    from repro.model import bounds
    from repro.workloads import common

    return SimpleNamespace(apps=apps, bounds=bounds, coexec=coexec,
                           compose=compose, isa_streams=isa_streams,
                           recurrence=recurrence, streams=streams,
                           table1=table1, workloads=common)


@dataclass(frozen=True)
class SweepCell:
    """One independently executable, independently cacheable cell."""

    kind: str
    config: Dict[str, Any]
    core_config: Optional[Any] = field(default=None, compare=False)
    mem_config: Optional[Any] = field(default=None, compare=False)

    def key_material(self) -> dict:
        """Everything the cache key is derived from: the cell's kind
        and config, the simulated machine, and the schema versions of
        every layer a result passes through.

        The key is a pure hash of these declared inputs, one rule for
        every kind: nothing is built, compiled or certified to derive
        it.  Certificates are absent on purpose — they steer the
        fast-forward but cannot change result bytes, so a defect that
        did change them is a jump-engine defect, invalidated by bumping
        the fast-forward, recurrence or compose schema version.
        """
        core, mem = _modules().bounds.filled(self.core_config,
                                             self.mem_config)
        return _material({"kind": self.kind, "config": self.config},
                         core, mem, _versions())

    def key(self) -> str:
        """``cache_key(self.key_material())``, byte for byte.

        Only the cell part is canonicalized per call (``config`` is a
        mutable dict); the canonical text around it is stored once per
        machine value (see :func:`_machine_text`).
        """
        head, tail = _machine_text(self.core_config, self.mem_config,
                                   _versions())
        cell = canonical_json({"kind": self.kind, "config": self.config})
        return hashlib.sha256(head + cell.encode() + tail).hexdigest()


def _versions() -> Tuple[Any, ...]:
    """The schema versions every key carries.

    Each module is resolved once per process (:func:`_modules`), but
    each constant is read from its module at every call, so a bumped
    (or, in a test, patched) version moves every key at once.
    """
    mods = _modules()
    return (
        ("cache_schema_version", CACHE_SCHEMA_VERSION),
        ("fastpath_schema_version", FASTPATH_SCHEMA_VERSION),
        ("recurrence_schema_version",
         mods.recurrence.RECURRENCE_SCHEMA_VERSION),
        ("compose_schema_version", mods.compose.COMPOSE_SCHEMA_VERSION),
        # Warm hits skip the oracle, so a model change must
        # invalidate every entry it vouched for.
        ("model_schema_version", mods.bounds.MODEL_SCHEMA_VERSION),
        ("repro_version", repro.__version__),
    )


def _material(cell: Any, core: Any, mem: Any,
              versions: Tuple[Any, ...]) -> dict:
    """The key material layout, shared by :meth:`SweepCell.key_material`
    and :func:`_machine_text`."""
    return {"cell": cell, "core_config": core.to_dict(),
            "mem_config": mem.to_dict(), **dict(versions)}


#: Stands in for the cell part while a machine's text is canonicalized.
#: No machine config holds this string; if one did, the split in
#: :func:`_machine_text` would raise instead of keying wrongly.
_CELL_SLOT = "\x00cell\x00"

#: Canonical key text before and after the cell part, per machine value.
_MACHINE_TEXT: Dict[tuple, Tuple[bytes, bytes]] = {}


def _machine_text(core: Any, mem: Any,
                  versions: Tuple[Any, ...]) -> Tuple[bytes, bytes]:
    """The canonical key text around the cell part, for one machine
    (``None`` for a default part).

    Stored by value (:func:`repro.model.bounds.config_key`), never by
    ``id()``: ``CoreConfig`` is mutable (``unified_queues()`` sets
    ``partitioned`` after construction), so a config changed since its
    last key gets fresh text, and equal configs share one entry.  A
    default part is looked up by
    :func:`repro.model.bounds.machine_keys`, so a cell without a config
    builds and serializes nothing.  The config keys carry their own
    hashes (:class:`repro.model.bounds.ConfigKey`), so a lookup rehashes
    no field value.  A canonicalisation that raises stores nothing.
    """
    bounds = _modules().bounds
    memo_key = (*bounds.machine_keys(core, mem), versions)
    text = _MACHINE_TEXT.get(memo_key)
    if text is None:
        core, mem = bounds.filled(core, mem)
        slotted = canonical_json(_material(_CELL_SLOT, core, mem, versions))
        head, tail = slotted.split(json.dumps(_CELL_SLOT))
        text = _MACHINE_TEXT[memo_key] = (head.encode(), tail.encode())
    return text


def cell_label(cell: SweepCell) -> str:
    """Short human-readable label for telemetry events and progress
    views — stable across runs (pure function of the cell config), and
    never part of any cache key."""
    c = cell.config
    if cell.kind == "stream-cpi":
        return (f"stream:{c['stream']}/{c['ilp'].lower()}"
                f"/t{c['threads']}")
    if cell.kind == "coexec-pair":
        return (f"pair:{c['stream_a']}+{c['stream_b']}"
                f"/{c['ilp'].lower()}")
    if cell.kind == "app-run":
        return f"app:{c['app']}/{c['variant']}"
    if cell.kind == "table1-row":
        return f"table1:{c['app']}/{c['column']}"
    return cell.kind


class CellRunner:
    """Executes one cell kind and moves its result through JSON."""

    kind: str = ""
    #: The config fields :meth:`run` reads; a spec missing one is
    #: rejected before it is keyed or scheduled.
    fields: Tuple[str, ...] = ()

    def run(self, cell: SweepCell) -> Any:
        raise NotImplementedError

    def encode(self, result: Any) -> dict:
        raise NotImplementedError

    def decode(self, payload: dict) -> Any:
        raise NotImplementedError


_REGISTRY: Dict[str, CellRunner] = {}


def register(runner_cls: type) -> type:
    runner = runner_cls()
    if not runner.kind:
        raise ValueError(f"{runner_cls.__name__} has no kind")
    _REGISTRY[runner.kind] = runner
    return runner_cls


def runner_for(kind: str) -> CellRunner:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ConfigError(f"unknown sweep-cell kind {kind!r}; "
                          f"known: {sorted(_REGISTRY)}")


@lru_cache(maxsize=None)
def workload_fingerprint(app: str) -> str:
    """Digest of one workload module's source: editing ``mm`` must
    invalidate mm cells and leave lu/cg/bt entries warm."""
    from repro.workloads import WORKLOADS

    if app not in WORKLOADS:
        raise ConfigError(f"unknown application {app!r}")
    source = inspect.getsource(WORKLOADS[app])
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def stream_recipe(name: str) -> dict:
    """The semantic fingerprint of one synthetic stream: its opcode
    rotation and memory stride.  Part of every stream/pair cell key, so
    redefining one stream invalidates exactly its row/column."""
    isa_streams = _modules().isa_streams
    ops = isa_streams.STREAM_OPS.get(name)
    if ops is None:
        raise ConfigError(f"unknown stream {name!r}")
    return {"ops": [op.name for op in ops],
            "stride": isa_streams.DEFAULT_MEM_STRIDE}


# ---------------------------------------------------------------------------
# Cell factories (used by the core drivers)
# ---------------------------------------------------------------------------

def stream_cell(name: str, ilp, threads: int,
                horizon_ticks: Optional[int] = None,
                core_config=None, mem_config=None) -> SweepCell:
    """One fig.-1 cell (also the solo baselines of fig. 2)."""
    horizon = horizon_ticks or _modules().streams.MEASURE_HORIZON_TICKS
    return SweepCell(
        kind="stream-cpi",
        config={
            "stream": name,
            "recipe": stream_recipe(name),
            "ilp": ilp.name,
            "threads": threads,
            "horizon_ticks": horizon,
        },
        core_config=core_config,
        mem_config=mem_config,
    )


def pair_cell(name_a: str, name_b: str, ilp,
              horizon_ticks: Optional[int] = None,
              core_config=None, mem_config=None) -> SweepCell:
    """One fig.-2 co-execution cell (raw dual-thread CPIs only; the
    driver combines them with the cached solo baselines)."""
    horizon = horizon_ticks or _modules().coexec.PAIR_HORIZON_TICKS
    return SweepCell(
        kind="coexec-pair",
        config={
            "stream_a": name_a,
            "stream_b": name_b,
            "recipe_a": stream_recipe(name_a),
            "recipe_b": stream_recipe(name_b),
            "ilp": ilp.name,
            "horizon_ticks": horizon,
        },
        core_config=core_config,
        mem_config=mem_config,
    )


def app_cell(app: str, variant, size: dict,
             core_config=None, mem_config=None) -> SweepCell:
    """One figs.-3–5 cell: (application, variant, size)."""
    return SweepCell(
        kind="app-run",
        config={
            "app": app,
            "workload_sha": workload_fingerprint(app),
            "variant": variant.value,
            "size": dict(size),
        },
        core_config=core_config,
        mem_config=mem_config,
    )


def table1_cell(app: str, column: str, size: dict) -> SweepCell:
    """One Table 1 cell: (application, column) at one size."""
    return SweepCell(
        kind="table1-row",
        config={
            "app": app,
            "workload_sha": workload_fingerprint(app),
            "column": column,
            "size": dict(size),
        },
    )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

@register
class StreamCPIRunner(CellRunner):
    kind = "stream-cpi"
    fields = ("stream", "ilp", "threads", "horizon_ticks")

    def run(self, cell: SweepCell):
        mods = _modules()
        c = cell.config
        return mods.streams.measure_stream_cpi(
            c["stream"], ilp=mods.isa_streams.ILP[c["ilp"]],
            threads=c["threads"],
            horizon_ticks=c["horizon_ticks"],
            core_config=cell.core_config, mem_config=cell.mem_config,
        )

    def encode(self, result) -> dict:
        return {
            "stream": result.stream,
            "ilp": result.ilp.name,
            "threads": result.threads,
            "cpi": result.cpi,
            "cumulative_ipc": result.cumulative_ipc,
            "cycles": result.cycles,
            "instrs_per_thread": result.instrs_per_thread,
        }

    def decode(self, payload: dict):
        mods = _modules()
        return mods.streams.StreamCPIResult(
            stream=payload["stream"],
            ilp=mods.isa_streams.ILP[payload["ilp"]],
            threads=payload["threads"],
            cpi=payload["cpi"],
            cumulative_ipc=payload["cumulative_ipc"],
            cycles=payload["cycles"],
            instrs_per_thread=payload["instrs_per_thread"],
        )


@register
class CoexecPairRunner(CellRunner):
    kind = "coexec-pair"
    fields = ("stream_a", "stream_b", "ilp", "horizon_ticks")

    def run(self, cell: SweepCell):
        mods = _modules()
        c = cell.config
        return mods.coexec.run_pair_cpis(
            c["stream_a"], c["stream_b"], ilp=mods.isa_streams.ILP[c["ilp"]],
            core_config=cell.core_config, mem_config=cell.mem_config,
            horizon_ticks=c["horizon_ticks"],
        )

    def encode(self, result) -> dict:
        cpi_a, cpi_b = result
        return {"cpi_a": cpi_a, "cpi_b": cpi_b}

    def decode(self, payload: dict):
        return (payload["cpi_a"], payload["cpi_b"])


@register
class AppRunRunner(CellRunner):
    kind = "app-run"
    fields = ("app", "variant", "size")

    def run(self, cell: SweepCell):
        mods = _modules()
        c = cell.config
        return mods.apps.run_app_experiment(
            c["app"], mods.workloads.Variant(c["variant"]), dict(c["size"]),
            core_config=cell.core_config, mem_config=cell.mem_config,
        )

    def encode(self, result) -> dict:
        return {
            "app": result.app,
            "variant": result.variant.value,
            "size": dict(result.size),
            "cycles": result.cycles,
            "l2_misses": result.l2_misses,
            "l2_misses_total": result.l2_misses_total,
            "l2_misses_worker": result.l2_misses_worker,
            "stall_cycles": result.stall_cycles,
            "uops": result.uops,
            "uops_per_thread": list(result.uops_per_thread),
            "reference_ok": result.reference_ok,
            "counters": {k: list(v) for k, v in result.counters.items()},
            "wall_time_s": result.wall_time_s,
        }

    def decode(self, payload: dict):
        mods = _modules()
        return mods.apps.AppRunResult(
            app=payload["app"],
            variant=mods.workloads.Variant(payload["variant"]),
            size=dict(payload["size"]),
            cycles=payload["cycles"],
            l2_misses=payload["l2_misses"],
            l2_misses_total=payload["l2_misses_total"],
            l2_misses_worker=payload["l2_misses_worker"],
            stall_cycles=payload["stall_cycles"],
            uops=payload["uops"],
            uops_per_thread=tuple(payload["uops_per_thread"]),
            reference_ok=payload["reference_ok"],
            counters={k: list(v) for k, v in payload["counters"].items()},
            wall_time_s=payload["wall_time_s"],
        )


@register
class Table1RowRunner(CellRunner):
    kind = "table1-row"
    fields = ("app", "column", "size")

    def run(self, cell: SweepCell):
        c = cell.config
        return _modules().table1.table1_row(c["app"], c["column"],
                                            dict(c["size"]))

    def encode(self, result) -> dict:
        return {
            "app": result.app,
            "column": result.column,
            "percentages": dict(result.percentages),
            "total_instructions": result.total_instructions,
        }

    def decode(self, payload: dict):
        return _modules().table1.Table1Row(
            app=payload["app"],
            column=payload["column"],
            percentages=dict(payload["percentages"]),
            total_instructions=payload["total_instructions"],
        )
