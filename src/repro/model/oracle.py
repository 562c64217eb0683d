"""Differential oracle: simulated results vs. provable static bounds.

Two surfaces:

* :func:`validate_cells` / :func:`oracle_cells` — the
  :class:`~repro.sweep.engine.SweepEngine` post-run hook.  Every
  simulated cell (fig.-1 stream CPIs, fig.-2 pair CPIs, app-run
  µop/cycle aggregates, Table-1 rows) is cross-checked against the
  interval :mod:`repro.model.bounds` proves for it; a result outside
  its interval raises :class:`~repro.common.errors.ModelViolation`.
  This catches simulator regressions *analytically* — a broken
  scheduler or mistimed unit trips the oracle on the first sweep, no
  golden file required.

* :func:`stream_model_findings` / :func:`pair_model_findings` — the
  sixth ``repro check`` pass ("model"): static-only bound reporting
  for check targets, ERROR when the model itself is inconsistent
  (lower above upper, missing timings).

Finite-sample tolerance: bounds already carry the baked-in relative
slack; on top, each comparison gets an absolute tolerance scaled by
the worst single-op cost over the measured instruction count, because
a marker/horizon boundary can charge one op's worth of ticks to the
measurement window (short-horizon sweeps in the determinism suite
measure only a few hundred instructions).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.check.findings import Finding, Severity
from repro.common.errors import ModelViolation
from repro.cpu.config import CoreConfig
from repro.isa.opcodes import is_mem
from repro.isa.streams import ILP, STREAM_OPS, StreamSpec
from repro.mem.config import MemConfig
from repro.model.bounds import CPIBound, stream_bounds
from repro.model.contention import pair_bounds

#: Boundary ops chargeable to a finite measurement window.
_ATOL_OPS = 4.0

#: Headroom on the joint unit-utilization law for finite windows.
_UTIL_SLACK = 1.05

#: App-run aggregate envelope: retire bandwidth floor (3 µops/cycle)
#: and a generous worst-case per-µop ceiling (the memory path is ~232
#: cycles serialized; 64 with constant headroom flags only divergence,
#: not noise).
_APP_UPPER_CYCLES_PER_UOP = 64.0
_APP_UPPER_CONST = 20_000.0
_APP_LOWER_CONST = 100.0


def _worst_op_cycles(name: str, cfg: CoreConfig, mem: MemConfig) -> float:
    """Worst single-instruction cost (cycles) a window edge can charge."""
    worst = 1.0
    for op in STREAM_OPS[name]:
        timing = cfg.timings.get(op)
        cost = float(timing.latency + timing.interval) if timing else 1.0
        if is_mem(op):
            cost += mem.l1_latency + mem.l2_latency + mem.mem_latency
        if cost > worst:
            worst = cost
    return worst / 2.0


def _atol(name: str, instrs: float, cfg: CoreConfig,
          mem: MemConfig) -> float:
    return _ATOL_OPS * _worst_op_cycles(name, cfg, mem) / max(instrs, 1.0)


def cpi_margin(bound: CPIBound, measured: float) -> Dict[str, Any]:
    """Bound-vs-measured margin record for run reports."""
    return {
        "stream": bound.stream,
        "ilp": bound.ilp.name,
        "threads": bound.threads,
        "sibling": bound.sibling,
        "lower_cpi": round(bound.lower, 6),
        "upper_cpi": round(bound.upper, 6),
        "measured_cpi": round(measured, 6),
        "margin_lower": round(measured - bound.lower, 6),
        "margin_upper": round(bound.upper - measured, 6),
        "binding": bound.binding,
        "contained": bound.contains(measured),
    }


def _violation(site: str, bound: CPIBound, measured: float,
               atol: float) -> Finding:
    side = "below lower" if measured < bound.lower else "above upper"
    return Finding(
        check="model", severity=Severity.ERROR, site=site,
        message=(
            f"simulated CPI {measured:.4f} falls {side} static bound "
            f"[{bound.lower:.4f}, {bound.upper:.4f}] cycles "
            f"(tolerance {atol:.4f}) — {bound.binding}"
        ),
        hint=("the simulator and the analytic model disagree; one of "
              "them regressed (check CoreConfig timings, unit routing, "
              "and the scheduler)"),
        data=cpi_margin(bound, measured),
    )


def _validate_stream_cell(cell: Any, result: Any) -> List[Finding]:
    c = cell.config
    cfg = cell.core_config if cell.core_config is not None else CoreConfig()
    mem = cell.mem_config if cell.mem_config is not None else MemConfig()
    name, ilp = c["stream"], ILP[c["ilp"]]
    sibling = name if c["threads"] == 2 else None
    bound = stream_bounds(StreamSpec(name, ilp=ilp), sibling=sibling,
                          core_config=cfg, mem_config=mem)
    atol = _atol(name, result.instrs_per_thread, cfg, mem)
    site = f"stream {name!r} ({ilp.name} ILP, {c['threads']}thr)"
    if not bound.contains(result.cpi, atol=atol):
        return [_violation(site, bound, result.cpi, atol)]
    return []


def _validate_pair_cell(cell: Any, result: Any) -> List[Finding]:
    c = cell.config
    cfg = cell.core_config if cell.core_config is not None else CoreConfig()
    mem = cell.mem_config if cell.mem_config is not None else MemConfig()
    a, b, ilp = c["stream_a"], c["stream_b"], ILP[c["ilp"]]
    cpi_a, cpi_b = result
    pb = pair_bounds(a, b, ilp=ilp, core_config=cfg, mem_config=mem)
    horizon = float(c.get("horizon_ticks") or 0.0)
    findings: List[Finding] = []
    for name, bound, cpi in ((a, pb.dual_a, cpi_a), (b, pb.dual_b, cpi_b)):
        # The pair runner reports CPIs only; estimate the measured
        # sample from the horizon for the boundary tolerance.
        instrs = (horizon / 2.0) / max(cpi, 1e-9) / 2.0 if horizon else 100.0
        atol = _atol(name, instrs, cfg, mem)
        site = f"pair {a} x {b} ({ilp.name} ILP), side {name!r}"
        if not bound.contains(cpi, atol=atol):
            findings.append(_violation(site, bound, cpi, atol))
    # Joint utilization law: a shared unit cannot be driven past one
    # initiation per tick by the two threads combined.
    da, db = pb.demand_a, pb.demand_b
    for unit in sorted(set(da) | set(db)):  # check: allow(set-iteration)
        util = (da.get(unit, 0.0) / (cpi_a * 2.0)
                + db.get(unit, 0.0) / (cpi_b * 2.0))
        if util > _UTIL_SLACK:
            findings.append(Finding(
                check="model", severity=Severity.ERROR,
                site=f"pair {a} x {b} ({ilp.name} ILP)",
                message=(
                    f"unit {unit!r} would need {util:.2f}x its issue "
                    f"bandwidth to sustain the simulated CPIs "
                    f"({cpi_a:.3f}, {cpi_b:.3f}) — impossible occupancy"
                ),
                hint="the simulated pair runs faster than the shared "
                     "unit physically allows; check UnitPool.try_issue",
                data={"unit": unit, "utilization": round(util, 4)},
            ))
    return findings


def _validate_app_cell(cell: Any, result: Any) -> List[Finding]:
    cfg = cell.core_config if cell.core_config is not None else CoreConfig()
    retire_per_cycle = cfg.retire_width / (cfg.retire_interval / 2.0)
    lower = result.uops / retire_per_cycle * 0.98 - _APP_LOWER_CONST
    upper = result.uops * _APP_UPPER_CYCLES_PER_UOP + _APP_UPPER_CONST
    site = f"app {result.app}/{result.variant.value}"
    if not (lower <= result.cycles <= upper):
        side = ("retire-bandwidth floor" if result.cycles < lower
                else "worst-case per-uop ceiling")
        return [Finding(
            check="model", severity=Severity.ERROR, site=site,
            message=(
                f"{result.cycles:.0f} cycles for {result.uops} uops "
                f"violates the {side} [{lower:.0f}, {upper:.0f}]"
            ),
            hint="retirement is capped at retire_width per interval; "
                 "check the retire stage and the uop accounting",
            data={"cycles": result.cycles, "uops": result.uops,
                  "lower": lower, "upper": upper},
        )]
    return []


def _validate_table1_cell(cell: Any, result: Any) -> List[Finding]:
    site = f"table1 {result.app}/{result.column}"
    findings: List[Finding] = []
    if result.total_instructions <= 0:
        findings.append(Finding(
            check="model", severity=Severity.ERROR, site=site,
            message="profiled zero instructions",
            hint="the functional replay produced no instruction mix",
        ))
    total = 0.0
    for unit, pct in sorted(result.percentages.items()):
        total += pct
        if not (0.0 <= pct <= 100.0001):
            findings.append(Finding(
                check="model", severity=Severity.ERROR, site=site,
                message=f"subunit {unit} percentage {pct:.3f} outside "
                        f"[0, 100]",
                hint="percentages are shares of the instruction mix",
                data={"unit": unit, "pct": pct},
            ))
    if total > 100.0001:
        findings.append(Finding(
            check="model", severity=Severity.ERROR, site=site,
            message=f"subunit percentages sum to {total:.3f} > 100",
            hint="each instruction uses one subunit; shares cannot "
                 "exceed the whole",
            data={"sum": total},
        ))
    return findings


def validate_cells(cells: Sequence[Any],
                   results: Sequence[Any]) -> List[Finding]:
    """Cross-validate every (cell, simulated result) pair.

    Returns the findings (ERROR = a provable bound was violated);
    unknown cell kinds are skipped, mirroring the pre-flight contract.
    """
    findings: List[Finding] = []
    for cell, result in zip(cells, results):
        if result is None:
            continue
        if cell.kind == "stream-cpi":
            findings.extend(_validate_stream_cell(cell, result))
        elif cell.kind == "coexec-pair":
            findings.extend(_validate_pair_cell(cell, result))
        elif cell.kind == "app-run":
            findings.extend(_validate_app_cell(cell, result))
        elif cell.kind == "table1-row":
            findings.extend(_validate_table1_cell(cell, result))
    return findings


def oracle_cells(cells: Sequence[Any], results: Sequence[Any]) -> None:
    """Engine post-run hook: raise :class:`ModelViolation` on ERROR."""
    errors = [f for f in validate_cells(cells, results)
              if f.severity is Severity.ERROR]
    if errors:
        head = errors[0]
        more = (f" (+{len(errors) - 1} more violation(s))"
                if len(errors) > 1 else "")
        raise ModelViolation(
            f"model oracle: {head.site}: {head.message}{more} — "
            f"simulated results left their provable static intervals; "
            f"run `repro model` for the bound tables or pass --no-check "
            f"to skip the oracle"
        )


# ---------------------------------------------------------------------------
# The sixth `repro check` pass (static-only; no simulated results).
# ---------------------------------------------------------------------------

def stream_model_findings(spec: StreamSpec,
                          core_config: Optional[CoreConfig] = None
                          ) -> List[Finding]:
    """Pass 6 for a stream target: report its provable CPI interval."""
    site = f"stream {spec.name!r} ({spec.ilp.name} ILP)"
    try:
        bound = stream_bounds(spec, core_config=core_config)
    except Exception as e:
        return [Finding(
            check="model", severity=Severity.ERROR, site=site,
            message=f"cannot bound the stream: {e}",
            hint="every opcode needs an OpTiming and a port route",
        )]
    if bound.lower > bound.upper:
        return [Finding(
            check="model", severity=Severity.ERROR, site=site,
            message=(f"inconsistent bounds: lower {bound.lower:.4f} > "
                     f"upper {bound.upper:.4f} cycles"),
            hint="a timing is self-contradictory (e.g. negative "
                 "latency or interval)",
            data=bound.to_dict(),
        )]
    return [Finding(
        check="model", severity=Severity.INFO, site=site,
        message=(f"static CPI interval [{bound.lower:.3f}, "
                 f"{bound.upper:.3f}] cycles — {bound.binding}"),
        data=bound.to_dict(),
    )]


def pair_model_findings(name_a: str, name_b: str,
                        ilp: ILP = ILP.MAX,
                        core_config: Optional[CoreConfig] = None
                        ) -> List[Finding]:
    """Pass 6 for a pair target: provable slowdown envelope."""
    site = f"pair {name_a} x {name_b}"
    try:
        pb = pair_bounds(name_a, name_b, ilp=ilp, core_config=core_config)
    except Exception as e:
        return [Finding(
            check="model", severity=Severity.ERROR, site=site,
            message=f"cannot bound the pair: {e}",
            hint="every opcode needs an OpTiming and a port route",
        )]
    lo_a, hi_a = pb.slowdown_a()
    lo_b, hi_b = pb.slowdown_b()
    return [Finding(
        check="model", severity=Severity.INFO, site=site,
        message=(
            f"static slowdown envelopes {name_a}: [{lo_a:.2f}, "
            f"{hi_a:.2f}]x, {name_b}: [{lo_b:.2f}, {hi_b:.2f}]x — "
            f"{pb.binding}"
        ),
        data=pb.to_dict(),
    )]


# ---------------------------------------------------------------------------
# Run-report margin sections (observe manifests).
# ---------------------------------------------------------------------------

def fig1_model_section(results: Sequence[Any],
                       core_config: Optional[CoreConfig] = None,
                       mem_config: Optional[MemConfig] = None) -> dict:
    """Bound-vs-measured margins for a fig.-1 result list."""
    margins = []
    for r in results:
        sibling = r.stream if r.threads == 2 else None
        bound = stream_bounds(StreamSpec(r.stream, ilp=r.ilp),
                              sibling=sibling, core_config=core_config,
                              mem_config=mem_config)
        margins.append(cpi_margin(bound, r.cpi))
    return {"generator": "repro.model", "margins": margins}


def fig2_model_section(results: Sequence[Any],
                       core_config: Optional[CoreConfig] = None,
                       mem_config: Optional[MemConfig] = None) -> dict:
    """Bound-vs-measured margins for a fig.-2 CoexecResult list."""
    margins = []
    for r in results:
        pb = pair_bounds(r.stream_a, r.stream_b, ilp=r.ilp,
                         core_config=core_config, mem_config=mem_config)
        margins.append(cpi_margin(pb.dual_a, r.cpi_a))
        margins.append(cpi_margin(pb.dual_b, r.cpi_b))
    return {"generator": "repro.model", "margins": margins}
