"""Sweep-target resolution shared by the daemon and the CLI.

A *target* names one of the paper's artifacts — ``fig1`` (optionally a
subset of its streams), ``fig2`` (one panel at one ILP level), ``app``
(one application at one size), ``table1`` — or a raw list of cell
specs.  :func:`resolve_target` turns the request parameters into a
:class:`ResolvedTarget`: the cells to run, the assembly step that turns
their results into report rows, and the report builder.  The CLI
figure verbs and the daemon both resolve their targets here, so a
served manifest is byte-identical to the CLI's volatile-stripped
report *by construction* — there is no second code path to drift.

Parameter problems raise :class:`ConfigError`, which the HTTP layer
maps to a 400 response and the CLI to exit status 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.core.apps import APP_SIZES, app_cells
from repro.core.coexec import assemble_coexec, coexec_cells, fig2_panel_pairs
from repro.core.streams import FIG1_STREAMS, fig1_cells
from repro.core.table1 import table1_cells
from repro.cpu.config import CoreConfig
from repro.isa.streams import ILP
from repro.mem.config import MemConfig
from repro.observe.report import build_report, indented_json, strip_volatile
from repro.sweep.cells import SweepCell, runner_for

_ILP = {"min": ILP.MIN, "med": ILP.MED, "max": ILP.MAX}

#: Targets :func:`resolve_target` understands (raw ``cells`` aside).
TARGETS = ("fig1", "fig2", "app", "table1")


@dataclass(frozen=True)
class ResolvedTarget:
    """One request, resolved to cells, assembly and report.

    ``report(rows, sweep=..., telemetry=...)`` builds the full manifest;
    the optional keywords pass the volatile ``sweep`` and ``telemetry``
    sections through to :func:`build_report`.
    """

    name: str                               # canonical target label
    kind: str                               # report kind (e.g. "fig2a")
    cells: Tuple[SweepCell, ...]            # cells, in driver order
    assemble: Callable[[List[Any]], Any]    # decoded results -> rows
    report: Callable[..., dict]             # rows -> full manifest dict


def manifest_bytes(report: dict) -> bytes:
    """The served manifest encoding: volatile-stripped, 2-space JSON,
    trailing newline — matching ``write_report`` + ``strip_volatile``
    applied to the CLI's file byte-for-byte."""
    return (indented_json(strip_volatile(report)) + "\n").encode()


def _str_list(value: Any, what: str) -> List[str]:
    """Accept a JSON list of strings or one comma-separated string."""
    if isinstance(value, str):
        value = [s for s in (p.strip() for p in value.split(",")) if s]
    if (not isinstance(value, list)
            or not all(isinstance(v, str) for v in value) or not value):
        raise ConfigError(f"{what} must be a non-empty list of names "
                          f"(or one comma-separated string)")
    return value


def _ilp_of(params: Dict[str, Any]) -> ILP:
    name = params.get("ilp", "max")
    if name not in _ILP:
        raise ConfigError(f"unknown ilp {name!r}; have {sorted(_ILP)}")
    return _ILP[name]


def app_size_dict(app: str, size: Optional[int]) -> dict:
    """The CLI's ``--size`` semantics: default is the middle shipped
    size (index ``min(1, len-1)``); mm/lu take a matrix ``n``, bt a
    ``grid``, cg is fixed."""
    if app not in APP_SIZES:
        raise ConfigError(f"unknown application {app!r}; "
                          f"have {sorted(APP_SIZES)}")
    if size is None:
        return dict(APP_SIZES[app][min(1, len(APP_SIZES[app]) - 1)])
    if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
        raise ConfigError(f"size must be a positive integer, got {size!r}")
    if app in ("mm", "lu"):
        return {"n": size}
    if app == "bt":
        return {"grid": size}
    raise ConfigError("cg has a fixed scaled size; omit size")


def _resolve_fig1(params: Dict[str, Any]) -> ResolvedTarget:
    from repro.model import fig1_model_section

    streams = params.get("streams")
    streams = (tuple(_str_list(streams, "streams"))
               if streams is not None else FIG1_STREAMS)
    cells = tuple(fig1_cells(streams))

    def report(results, **volatile):
        return build_report("fig1", results, core_config=CoreConfig(),
                            mem_config=MemConfig(),
                            model=fig1_model_section(results), **volatile)

    return ResolvedTarget(name="fig1", kind="fig1", cells=cells,
                          assemble=lambda results: results, report=report)


def _resolve_fig2(params: Dict[str, Any]) -> ResolvedTarget:
    from repro.model import fig2_model_section

    panel = params.get("panel", "a")
    ilp = _ilp_of(params)
    cells, pairs, solos = coexec_cells(fig2_panel_pairs(panel), ilp=ilp)

    def report(results, **volatile):
        return build_report(f"fig2{panel}", results,
                            core_config=CoreConfig(),
                            mem_config=MemConfig(),
                            model=fig2_model_section(results),
                            extra={"panel": panel,
                                   "ilp": ilp.name.lower()}, **volatile)

    return ResolvedTarget(
        name=f"fig2{panel}", kind=f"fig2{panel}", cells=tuple(cells),
        assemble=lambda results: assemble_coexec(pairs, ilp, solos, results),
        report=report)


def _resolve_app(params: Dict[str, Any]) -> ResolvedTarget:
    name = params.get("name")
    if not isinstance(name, str):
        raise ConfigError("app target needs a 'name' (mm/lu/cg/bt)")
    size_d = app_size_dict(name, params.get("size"))
    cells = tuple(app_cells(name, sizes=[size_d]))

    def report(results, **volatile):
        return build_report(f"app-{name}", results,
                            core_config=CoreConfig(),
                            mem_config=MemConfig(),
                            extra={"size": size_d}, **volatile)

    return ResolvedTarget(name=f"app-{name}", kind=f"app-{name}",
                          cells=cells,
                          assemble=lambda results: results, report=report)


def _resolve_table1(params: Dict[str, Any]) -> ResolvedTarget:
    cells = tuple(table1_cells())

    def report(results, **volatile):
        return build_report("table1", results, core_config=CoreConfig(),
                            mem_config=MemConfig(), **volatile)

    return ResolvedTarget(name="table1", kind="table1", cells=cells,
                          assemble=lambda results: results, report=report)


def resolve_target(params: Dict[str, Any]) -> ResolvedTarget:
    """Resolve request parameters to cells + assembly + report builder.

    ``params`` is the decoded request body (or parsed query string):
    ``{"target": "fig2", "panel": "b", "ilp": "max"}`` and the like.
    """
    if not isinstance(params, dict):
        raise ConfigError("request parameters must be a JSON object")
    target = params.get("target")
    if target == "fig1":
        return _resolve_fig1(params)
    if target == "fig2":
        return _resolve_fig2(params)
    if target == "app":
        return _resolve_app(params)
    if target == "table1":
        return _resolve_table1(params)
    raise ConfigError(f"unknown target {target!r}; have {TARGETS}")


def parse_cells(specs: Any) -> Tuple[List[SweepCell], List[str]]:
    """Validate raw cell specs (the POST /cells body) into cells and
    their cache keys.

    Each spec is ``{"kind": <registered kind>, "config": {...}}`` plus
    nothing else — machine overrides are a target-level concern.  An
    unknown kind, or a config missing a field its runner reads (see
    :attr:`~repro.sweep.cells.CellRunner.fields`), is a
    :class:`ConfigError` (400), raised before anything is scheduled.
    Field *values* are judged by pre-flight (422).  The keys come back
    with the cells for
    :meth:`~repro.serve.scheduler.CellScheduler.fetch` to reuse.
    """
    if not isinstance(specs, list) or not specs:
        raise ConfigError("cells must be a non-empty list of "
                          "{kind, config} objects")
    cells = []
    for i, spec in enumerate(specs):
        if not isinstance(spec, dict) or not isinstance(
                spec.get("config"), dict):
            raise ConfigError(f"cell #{i} must be an object with a "
                              f"'config' object")
        unknown = set(spec) - {"kind", "config"}
        if unknown:
            raise ConfigError(f"cell #{i} has unknown fields "
                              f"{sorted(unknown)}")
        kind = spec.get("kind")
        if not isinstance(kind, str):
            raise ConfigError(f"cell #{i} needs a string 'kind'")
        runner = runner_for(kind)  # raises ConfigError on unknown kinds
        missing = [f for f in runner.fields if f not in spec["config"]]
        if missing:
            raise ConfigError(f"cell #{i} has an invalid {kind!r} "
                              f"config: missing field(s) {missing}")
        cells.append(SweepCell(kind=kind, config=spec["config"]))
    return cells, [cell.key() for cell in cells]
