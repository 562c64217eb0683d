"""Structured, versioned run reports.

Every experiment driver and CLI command can emit a JSON manifest of a
run — machine configuration, per-thread counters, stall breakdown,
delinquency heatmap, wall time — so benchmark trajectories become
diffable artifacts.  ``schema_version`` is bumped on any
backwards-incompatible change to the layout.

Every unsorted indented JSON text the program writes — report files,
``--json`` prints, served manifests and response bodies — comes from
:func:`indented_json`.  Its contract is byte identity: for any value,
``indented_json(obj) == json.dumps(obj, indent=2)``, and where
``json.dumps`` raises, it raises the same exception type.  It builds a
document of exact builtin JSON types (``dict``, ``list``, ``tuple``,
``str``, ``int``, ``float``, ``bool``, ``None``) in one pass and one
join; a document holding anything else (a subclass, a numpy scalar, a
non-encodable value, a cycle, or nesting too deep to recurse into) is
handed to ``json.dumps`` whole, so it is encoded, or rejected, exactly
as ``json`` does.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import IO, Any, Dict, List, Optional, Tuple, Union

SCHEMA_VERSION = 1

#: Report keys that legitimately differ between byte-identical runs:
#: host wall time, sweep-execution metadata (cache hit/miss counts, job
#: counts, per-phase wall times), and the telemetry section (event-log
#: path and run id).  The determinism suite strips these before
#: comparing reports across ``--jobs`` levels, cache temperatures, and
#: telemetry on/off.
VOLATILE_KEYS = frozenset({"wall_time_s", "sweep", "telemetry"})


def strip_volatile(report: Any) -> Any:
    """Recursively drop the run-environment-dependent fields.

    What remains is a pure function of (code, configuration), so two
    reports of the same sweep — serial, parallel, or warm-cache — must
    compare byte-identical after this.
    """
    if isinstance(report, dict):
        return {k: strip_volatile(v) for k, v in report.items()
                if k not in VOLATILE_KEYS}
    if isinstance(report, list):
        return [strip_volatile(v) for v in report]
    return report


#: The exact scalar types a JSON document holds as they are.
_PLAIN = frozenset({str, int, float, bool, type(None)})

#: Field names per dataclass type (``None`` for any other type), read
#: once per type: :func:`dataclasses.fields` rebuilds its tuple per call.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    names = _FIELD_NAMES.get(cls, False)
    if names is False:
        names = _FIELD_NAMES[cls] = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls) else None)
    return names


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of driver result values to JSON types.

    Exact builtin types are dispatched first; anything else (enums,
    dataclasses, sets, subclasses, foreign scalars) takes the general
    rules below.
    """
    cls = type(value)
    if cls in _PLAIN:
        return value
    if cls is dict:
        return {k if type(k) is str else str(_jsonable(k)): _jsonable(v)
                for k, v in value.items()}
    if cls is list or cls is tuple:
        return [_jsonable(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value if isinstance(value.value, (str, int)) else value.name
    if _field_names(cls) is not None:
        return result_to_dict(value)
    if isinstance(value, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def result_to_dict(result: Any) -> dict:
    """Serialize one driver result (any of the repro dataclasses)."""
    names = _field_names(type(result))
    if names is None:
        return {"value": _jsonable(result)}
    out = {}
    for name in names:
        value = getattr(result, name)
        if type(value) in _PLAIN:
            out[name] = value
        # PerfMonitor rides along in CoreResult; snapshot it.
        elif hasattr(value, "snapshot") and hasattr(value, "raw"):
            out[name] = {k: list(v) for k, v in value.snapshot().items()}
        else:
            out[name] = _jsonable(value)
    return out


def build_report(
    kind: str,
    results: Any,
    core_config: Optional[Any] = None,
    mem_config: Optional[Any] = None,
    counters: Optional[dict] = None,
    accountant: Optional[Any] = None,
    heatmap: Optional[Any] = None,
    wall_time_s: Optional[float] = None,
    sweep: Optional[dict] = None,
    model: Optional[dict] = None,
    fastpath: Optional[dict] = None,
    telemetry: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the versioned manifest for one command/driver run."""
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "generator": "repro.observe",
    }
    config: dict[str, Any] = {}
    if core_config is not None:
        config["core"] = (core_config.to_dict()
                          if hasattr(core_config, "to_dict")
                          else _jsonable(core_config))
    if mem_config is not None:
        config["mem"] = (mem_config.to_dict()
                         if hasattr(mem_config, "to_dict")
                         else _jsonable(mem_config))
    if config:
        report["config"] = config
    if isinstance(results, (list, tuple)):
        report["results"] = [result_to_dict(r) for r in results]
    else:
        report["results"] = [result_to_dict(results)]
    if counters is not None:
        report["counters"] = {k: list(v) for k, v in counters.items()}
    if accountant is not None:
        report["stall_breakdown"] = accountant.to_dict()
    if heatmap is not None:
        report["l2_miss_heatmap"] = (heatmap.to_dict()
                                     if hasattr(heatmap, "to_dict")
                                     else _jsonable(heatmap))
    if wall_time_s is not None:
        report["wall_time_s"] = wall_time_s
    if sweep is not None:
        report["sweep"] = _jsonable(sweep)
    if fastpath is not None:
        # Fast-forward engagement counters (jumps, coverage, stand-down
        # reasons).  Pure simulation state — no wall time, no pids — so
        # deliberately NOT volatile: the same run must report the same
        # counters whether telemetry is on or off.
        report["fastpath"] = _jsonable(fastpath)
    if telemetry is not None:
        # Where this run's event log went (path, run id).  Volatile by
        # construction; strip_volatile removes it.
        report["telemetry"] = _jsonable(telemetry)
    if model is not None:
        # Bound-vs-measured margins (repro.model).  Deterministic — a
        # pure function of (results, config) — so deliberately NOT in
        # VOLATILE_KEYS: margins must replay byte-identically too.
        report["model"] = _jsonable(model)
    if extra:
        report.update(_jsonable(extra))
    return report


def write_report(report: dict, out: Union[str, IO[str]]) -> None:
    """Write ``report`` as 2-space JSON in one ``write``: to a path with
    a trailing newline, to an open text stream without one."""
    if isinstance(out, str):
        with open(out, "w") as fp:
            fp.write(indented_json(report) + "\n")
    else:
        out.write(indented_json(report))


class _Inexact(Exception):
    """A value :func:`indented_json` leaves to ``json.dumps``."""


_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


#: Exact scalar type -> its JSON text, as ``json.dumps`` writes it.
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}

#: Exact key type -> its JSON text: ``json`` quotes a non-str key's
#: scalar text.
_KEY_TEXT = {
    str: _escape,
    int: lambda key: '"' + int.__repr__(key) + '"',
    float: lambda key: '"' + _float_text(key) + '"',
    bool: lambda key: '"true"' if key else '"false"',
    type(None): lambda key: '"null"',
}

_CONTAINERS = frozenset({dict, list, tuple})


def _emit(value: Any, parts: List[str], prefix: str, level: int) -> None:
    """Append ``prefix`` and the text of the dict, list or tuple
    ``value`` nested at ``level``, writing scalars inline as ``json``
    does; raise :class:`_Inexact` on any value of another type."""
    is_dict = type(value) is dict
    if not value:
        parts.append(prefix + ("{}" if is_dict else "[]"))
        return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    append = parts.append
    if is_dict:
        head = prefix + "{" + inner
        for key, item in value.items():
            key_text = _KEY_TEXT.get(type(key))
            if key_text is None:
                raise _Inexact
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                append(head + key_text(key) + ": " + text(item))
            elif type(item) in _CONTAINERS:
                _emit(item, parts, head + key_text(key) + ": ", level + 1)
            else:
                raise _Inexact
            head = sep
        append("\n" + "  " * level + "}")
    else:
        head = prefix + "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is not None:
                append(head + text(item))
            elif type(item) in _CONTAINERS:
                _emit(item, parts, head, level + 1)
            else:
                raise _Inexact
            head = sep
        append("\n" + "  " * level + "]")


def indented_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, in one join (the
    contract is in the module docstring)."""
    if type(obj) in _CONTAINERS:
        parts: List[str] = []
        try:
            _emit(obj, parts, "", 0)
        except (_Inexact, RecursionError):
            pass
        else:
            return "".join(parts)
    return json.dumps(obj, indent=2)
