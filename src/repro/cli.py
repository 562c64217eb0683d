"""Command-line interface: regenerate any of the paper's artifacts.

::

    python -m repro fig1                      # stream CPI table
    python -m repro fig2 --panel a            # co-execution slowdowns
    python -m repro app mm --size 32          # one fig-3/4/5 sweep
    python -m repro app cg --variant tlp-pfetch
    python -m repro table1                    # subunit utilization
    python -m repro stream fadd --ilp max --threads 2
    python -m repro check                     # static analysis, no simulation
    python -m repro check --experiment exp.py --json
    python -m repro check --lint-src          # determinism lint over src/
    python -m repro check --fail-on warn      # warnings fail too (CI)
    python -m repro certify --json            # recurrence certificates
    python -m repro certify --verify          # + static/dynamic agreement
    python -m repro certify --pairs --verify  # + joint pair certificates
    python -m repro model                     # provable CPI/slowdown bounds
    python -m repro model --ilp max --json
    python -m repro serve --port 8750         # the sweep engine as a daemon

Every command prints the same renderings the benchmark harness emits.

``repro check`` (the :mod:`repro.check` analyzer) verifies experiments
*without simulating them*: hazard/ILP chains, unit legality, vector-
clock race detection, SPR span windows, (with ``--lint-src``) an AST
determinism lint of the source tree, and the analytic-model pass
reporting each stream's provable CPI interval.  The sweep commands run
the same hazard/unit/race/span passes as a fail-fast pre-flight over
every cell they simulate, then cross-check every simulated result
against its static CPI interval (the :mod:`repro.model` differential
oracle).  A result is checked once, before it is published, and the
cache holds only checked results, so cache hits are not re-checked.
``--no-check`` skips both checks; its results are reported but never
cached.

``repro certify`` (the :mod:`repro.check.recurrence` pass) emits the
versioned recurrence certificates — per-stream period lattices and
per-trace tiled recurrence windows with their guard splices — for
every shipped stream spec and every recordable app experiment, again
without simulating anything.  ``--verify`` additionally machine-checks
each app certificate against its own trace and replays every
recordable cell with the fast-forward disabled, exiting non-zero on
any static/dynamic disagreement (the CI ``certify`` gate).
``--pairs`` adds the :mod:`repro.check.compose` pass: a joint
super-period certificate for every fig.-2 pair; with ``--verify``,
each pair is also replayed dual-threaded under certificate guidance,
its CPIs must match the fast-forward-disabled replay byte-for-byte,
and every observed jump's per-thread position delta must lie on the
certified period lattice.

``repro model`` (the :mod:`repro.model` analyzer) prints, without
simulating anything, the provable CPI interval of every §4 stream
(solo and against a hyper-threaded copy of itself) and the provable
slowdown envelope of every fig.-2 pair, each annotated with its
binding constraint (e.g. ``fdiv: bound by non-pipelined divider
interval 76t``).

Sweep flags (the :mod:`repro.sweep` engine; ``fig1``, ``fig2``,
``table1``, and ``app`` without ``--variant``, which resolve their
cells and reports through :mod:`repro.serve.targets`, exactly as the
daemon does):

* ``--jobs N`` fans independent cells out over N worker processes
  (default 1; results are collected in deterministic order, so reports
  are byte-identical across job counts);
* ``--cache-dir PATH`` selects the content-addressed result cache
  (default ``.repro-cache``); re-runs only recompute cells whose
  config, stream recipe, workload source, machine config, or repro
  version changed — interrupted sweeps resume for free;
* ``--no-cache`` disables the cache; ``--fresh`` recomputes every cell
  and rewrites its cache entry.

Observability flags (the :mod:`repro.observe` stack):

* ``--report out.json`` writes a versioned JSON manifest of the run
  (sweep runs include cache hit/miss counts under ``"sweep"``);
* ``--json`` prints the same manifest to stdout instead of the ASCII
  rendering;
* ``--trace out.trace.json`` (single runs: ``app --variant``,
  ``stream``) records the full pipeline and writes a Chrome
  ``trace_event`` file loadable in ``chrome://tracing`` / Perfetto.

Single runs with any observability flag also attach the per-cycle
stall accountant (and, for apps, the delinquent-site profiler), so the
report explains *where the machine slots went*.

Telemetry (the :mod:`repro.telemetry` bus): sweep commands record a
JSONL event log of the full cell lifecycle by default (enqueue, cache
probe, per-worker simulate spans with fastpath counters, oracle,
store).  ``repro top`` follows the newest log live; ``repro
telemetry`` summarizes a recorded one.  ``--no-telemetry`` (or
``REPRO_TELEMETRY=0``) turns recording off — reports are byte-
identical either way, which the equivalence suite asserts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from repro.analysis import (
    check_app_shapes,
    render_app_figure,
    render_fig1,
    render_fig2,
    render_miss_heatmap,
    render_stall_breakdown,
    render_table1,
)
from repro.common.errors import (
    CacheError,
    ConfigError,
    ReproError,
    UsageError,
    format_cli_error,
)
from repro.core import measure_stream_cpi, run_app_experiment
from repro.core.apps import APP_SIZES
from repro.cpu.config import CoreConfig
from repro.isa import ILP
from repro.mem.config import MemConfig
from repro.observe import (
    CycleAccountant,
    PipelineTracer,
    SiteMissProfile,
    build_report,
    indented_json,
    write_report,
)
from repro.sweep import ResultCache, SweepEngine
from repro.workloads.common import Variant

_ILP = {"min": ILP.MIN, "med": ILP.MED, "max": ILP.MAX}

#: Figure 2 panel titles.
_FIG2_TITLES = {"a": "fp x fp", "b": "int x int", "c": "fp x int"}

#: Default cap on recorded trace events — bounds trace-file size and
#: memory for long runs; the Chrome export flags truncation in
#: ``otherData.truncated``.
TRACE_LIMIT = 200_000

#: Default location of the content-addressed sweep result cache.
DEFAULT_CACHE_DIR = ".repro-cache"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a positive integer")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_output_flags(sp: argparse.ArgumentParser,
                      traceable: bool = False) -> None:
    sp.add_argument("--report", metavar="PATH",
                    help="write a versioned JSON run manifest to PATH")
    sp.add_argument("--json", action="store_true",
                    help="print the JSON manifest instead of ASCII output")
    if traceable:
        sp.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace_event file to PATH "
                        "(single runs only)")
        sp.add_argument("--trace-limit", type=_positive_int,
                        default=TRACE_LIMIT, metavar="N",
                        help="cap recorded trace events (default %(default)s)")


def _add_sweep_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                    help="run sweep cells across N worker processes "
                    "(default %(default)s)")
    sp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="PATH",
                    help="content-addressed result cache directory "
                    "(default %(default)s)")
    sp.add_argument("--no-cache", action="store_true",
                    help="disable the sweep result cache")
    sp.add_argument("--fresh", action="store_true",
                    help="recompute every cell, overwriting cache entries")
    sp.add_argument("--no-check", action="store_true",
                    help="skip the static pre-flight checks "
                    "(hazards/units/races/spans) before simulating and "
                    "the model-bound oracle after; unchecked results "
                    "are never cached (cached results were checked "
                    "before they were stored)")
    sp.add_argument("--no-fastpath", action="store_true",
                    help="disable the steady-state fast-forward and "
                    "step every tick (results are byte-identical either "
                    "way; for A/B timing and paranoia)")
    sp.add_argument("--no-telemetry", action="store_true",
                    help="do not record a telemetry event log for this "
                    "sweep (reports are byte-identical either way; "
                    "REPRO_TELEMETRY=0 disables it globally)")
    sp.add_argument("--telemetry-dir", default=None, metavar="PATH",
                    help="directory for telemetry event logs (default: "
                    "$REPRO_TELEMETRY_DIR or .repro-telemetry)")


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first :func:`main` call
    and reused for every later one (``import repro.cli`` builds none).

    Parsing reads the parser and writes only the returned namespace, so
    one instance serves every call; no default is a mutable container.
    """
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Exploring the Performance Limits of SMT "
        "for Scientific Codes' (ICPP 2006) on a simulated "
        "hyper-threaded processor.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f1 = sub.add_parser("fig1", help="figure 1: stream CPI across TLP x ILP")
    f1.add_argument("--streams", default=None, metavar="A,B,...",
                    help="comma-separated subset of the figure's streams "
                    "(default: all five)")
    _add_sweep_flags(f1)
    _add_output_flags(f1)

    f2 = sub.add_parser("fig2", help="figure 2: co-execution slowdowns")
    f2.add_argument("--panel", choices=["a", "b", "c"], default="a")
    f2.add_argument("--ilp", choices=sorted(_ILP), default="max")
    _add_sweep_flags(f2)
    _add_output_flags(f2)

    ap = sub.add_parser("app", help="figures 3-5: one application sweep")
    ap.add_argument("name", choices=sorted(APP_SIZES))
    ap.add_argument("--variant", choices=[v.value for v in Variant])
    ap.add_argument("--size", type=int,
                    help="matrix n (mm/lu) or grid (bt); cg is fixed")
    ap.add_argument("--check", action="store_true",
                    help="evaluate the paper-shape expectations too")
    _add_sweep_flags(ap)
    _add_output_flags(ap, traceable=True)

    t1 = sub.add_parser("table1", help="Table 1: subunit utilization")
    _add_sweep_flags(t1)
    _add_output_flags(t1)

    st = sub.add_parser("stream", help="CPI of one synthetic stream")
    st.add_argument("name")
    st.add_argument("--ilp", choices=sorted(_ILP), default="max")
    st.add_argument("--threads", type=int, choices=[1, 2], default=1)
    st.add_argument("--no-fastpath", action="store_true",
                    help="disable the steady-state fast-forward and "
                    "step every tick (results are byte-identical either "
                    "way; for A/B timing and paranoia)")
    _add_output_flags(st, traceable=True)

    ck = sub.add_parser(
        "check",
        help="static analysis — hazards, units, races, spans, lint — "
        "without simulating anything",
    )
    ck.add_argument("--experiment", metavar="PATH",
                    help="analyze the TARGETS list exported by a Python "
                    "experiment file instead of the shipped defaults")
    ck.add_argument("--lint-src", nargs="?", const="src", default=None,
                    metavar="PATH",
                    help="run the determinism lint over PATH (default: "
                    "src); given alone, runs only the lint")
    ck.add_argument("--budget", type=_positive_int, default=None,
                    metavar="N",
                    help="per-thread instruction budget for the race "
                    "scan of the default targets")
    ck.add_argument("--fail-on", choices=["error", "warn", "info"],
                    default="error",
                    help="lowest severity that fails the run "
                    "(default %(default)s)")
    ck.add_argument("--json", action="store_true",
                    help="print the findings as a versioned JSON document")

    cf = sub.add_parser(
        "certify",
        help="static recurrence certificates — period lattices, tiled "
        "recurrence windows, guard splices — without simulating",
    )
    cf.add_argument("--app-sizes", choices=["all", "small"], default="all",
                    help="app coverage: every shipped size, or only the "
                    "smallest per app (default %(default)s)")
    cf.add_argument("--json", action="store_true",
                    help="print the certificate inventory as a versioned "
                    "JSON document")
    cf.add_argument("--out", metavar="PATH", default=None,
                    help="also write the JSON inventory to PATH "
                    "(the CI certificates.json artifact)")
    cf.add_argument("--verify", action="store_true",
                    help="machine-check every app certificate against its "
                    "trace and replay each recordable cell with the "
                    "fast-forward disabled; any static/dynamic "
                    "disagreement fails the run")
    cf.add_argument("--pairs", action="store_true",
                    help="include the fig.-2 pair-composition "
                    "certificates (joint super-period lattices); with "
                    "--verify, also replay every pair dual-threaded and "
                    "check each observed jump against the joint lattice")

    md = sub.add_parser(
        "model",
        help="provable CPI bounds and slowdown envelopes — the static "
        "machine model, no simulation",
    )
    md.add_argument("--ilp", choices=sorted(_ILP), default=None,
                    help="restrict to one ILP level (default: all)")
    _add_output_flags(md)

    tp = sub.add_parser(
        "top",
        help="live progress view of a running sweep (follows the "
        "newest telemetry log)",
    )
    tp.add_argument("path", nargs="?", default=None,
                    help="telemetry JSONL log to follow (default: the "
                    "newest log in the telemetry directory)")
    tp.add_argument("--interval", type=float, default=0.5, metavar="S",
                    help="poll/redraw interval in seconds "
                    "(default %(default)s)")
    tp.add_argument("--once", action="store_true",
                    help="render a single frame and exit (no follow)")
    tp.add_argument("--duration", type=float, default=None, metavar="S",
                    help="exit after S seconds even if the sweep is "
                    "still running")
    tp.add_argument("--telemetry-dir", default=None, metavar="PATH",
                    help="directory to look the newest log up in (e.g. "
                    "a serve daemon's spool; default: "
                    "$REPRO_TELEMETRY_DIR or .repro-telemetry)")

    tl = sub.add_parser(
        "telemetry",
        help="summarize a recorded telemetry event log",
    )
    tl.add_argument("path", nargs="?", default=None,
                    help="telemetry JSONL log (default: the newest log "
                    "in the telemetry directory)")
    tl.add_argument("--json", action="store_true",
                    help="print the summary as JSON")
    tl.add_argument("--telemetry-dir", default=None, metavar="PATH",
                    help="directory to look the newest log up in "
                    "(default: $REPRO_TELEMETRY_DIR or .repro-telemetry)")

    sv = sub.add_parser(
        "serve",
        help="run the sweep service: a persistent daemon with a "
        "warm-cache fast path and request coalescing",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="address to bind (default %(default)s)")
    sv.add_argument("--port", type=int, default=8750,
                    help="port to bind; 0 picks an ephemeral port "
                    "(default %(default)s)")
    sv.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                    help="persistent worker-pool width "
                    "(default %(default)s)")
    sv.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                    metavar="PATH",
                    help="content-addressed result cache directory "
                    "(default %(default)s)")
    sv.add_argument("--no-cache", action="store_true",
                    help="serve without the object store (every request "
                    "recomputes; disables the warm fast path)")
    sv.add_argument("--no-check", action="store_true",
                    help="skip the static preflight and the model-bound "
                    "oracle on cold cells; their results are served "
                    "but never stored")
    sv.add_argument("--no-fastpath", action="store_true",
                    help="disable the steady-state fast-forward in the "
                    "workers")
    sv.add_argument("--no-telemetry", action="store_true",
                    help="do not record a telemetry event log "
                    "(also disables GET /events)")
    sv.add_argument("--telemetry-dir", default=None, metavar="PATH",
                    help="directory for the daemon's telemetry spool "
                    "(default: $REPRO_TELEMETRY_DIR or .repro-telemetry)")
    sv.add_argument("--ready-file", default=None, metavar="PATH",
                    help="write 'host port' to PATH once the socket is "
                    "bound (for scripted startup)")
    return p


def _make_engine(args: argparse.Namespace) -> SweepEngine:
    """Build the sweep engine the command's flags describe.

    Flag problems surface here as :class:`UsageError` (the same
    ``repro: error:`` shape and exit status as argparse's own errors),
    before any simulation runs.
    """
    if not isinstance(args.jobs, int) or args.jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, "
                         f"got {args.jobs!r}")
    if getattr(args, "no_fastpath", False):
        from repro.cpu.fastpath import set_default_enabled

        set_default_enabled(False)
    cache = None
    if not args.no_cache:
        try:
            cache = ResultCache(args.cache_dir)
        except CacheError as e:
            raise UsageError(
                f"--cache-dir {args.cache_dir!r} is unusable: {e} "
                f"(pick a writable directory or pass --no-cache)")
    bus = None
    if not args.no_telemetry:
        from repro import telemetry as _telemetry

        if _telemetry.enabled_by_env():
            path = _telemetry.new_log_path(args.telemetry_dir,
                                           prefix=args.command)
            bus = _telemetry.TelemetryBus(path)
    return SweepEngine(jobs=args.jobs, cache=cache, fresh=args.fresh,
                       check=not args.no_check, telemetry=bus)


def _sweep(args: argparse.Namespace, params: dict) -> tuple:
    """Run one named target through the sweep engine.

    Cells, assembly and report come from
    :func:`repro.serve.targets.resolve_target` — the daemon's own
    resolver.  Returns ``(rows, report)``.
    """
    from repro.serve.targets import resolve_target

    target = resolve_target(params)
    engine = _make_engine(args)
    rows = target.assemble(engine.run(target.cells))
    print(engine.stats.describe(), file=sys.stderr)
    bus, telemetry = engine.telemetry, None
    if bus is not None:
        from repro.telemetry import TELEMETRY_SCHEMA_VERSION

        # The report's volatile pointer to this run's event log.
        telemetry = {"schema_version": TELEMETRY_SCHEMA_VERSION,
                     "log": bus.path, "run": bus.run_id}
        print(f"telemetry: {bus.path} "
              f"(view with `repro top` / `repro telemetry`)",
              file=sys.stderr)
    return rows, target.report(rows, sweep=engine.stats.to_dict(),
                               telemetry=telemetry)


def _observing(args: argparse.Namespace) -> bool:
    """Whether any observability output was requested."""
    return bool(args.report or args.json or getattr(args, "trace", None))


def _emit(args: argparse.Namespace, report: dict, rendering: str,
          extra_renderings: Sequence[str] = ()) -> None:
    """Route one command's output: ASCII and/or JSON and/or report file."""
    if args.json:
        print(indented_json(report))
    else:
        print(rendering)
        for r in extra_renderings:
            print()
            print(r)
    if args.report:
        try:
            write_report(report, args.report)
        except OSError as e:
            raise ReproError(f"cannot write report to {args.report}: {e}")


def _write_trace(tracer: PipelineTracer, path: str) -> None:
    try:
        n = tracer.to_chrome(path)
    except OSError as e:
        raise ReproError(f"cannot write trace to {path}: {e}")
    note = " (truncated)" if tracer.truncated else ""
    print(f"wrote {n} trace events to {path}{note}", file=sys.stderr)


def _cmd_fig1(args: argparse.Namespace) -> int:
    rows, report = _sweep(args, {"target": "fig1", "streams": args.streams})
    _emit(args, report, render_fig1(rows))
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    rows, report = _sweep(args, {"target": "fig2", "panel": args.panel,
                                 "ilp": args.ilp})
    title = f"{_FIG2_TITLES[args.panel]} pairs ({args.ilp} ILP)"
    _emit(args, report,
          render_fig2(rows, f"Figure 2({args.panel}) — {title}"))
    return 0


def _cmd_app(args: argparse.Namespace) -> int:
    from repro.serve.targets import app_size_dict

    name = args.name
    size_d = app_size_dict(name, args.size)
    if args.variant is None:
        if args.trace:
            raise UsageError("--trace records one run; pick it with --variant")
        rows, report = _sweep(args, {"target": "app", "name": name,
                                     "size": args.size})
        _emit(args, report, render_app_figure(rows))
        status = 0
        if args.check:
            checks = check_app_shapes(name, rows)
            if not args.json:
                for c in checks:
                    print(c)
            if any(not c.holds for c in checks):
                status = 1
        return status
    if args.jobs != 1:
        raise UsageError("--jobs parallelizes sweeps; it does not apply "
                         "to a single --variant run")
    observe = _observing(args)
    tracer = PipelineTracer(limit=args.trace_limit) if args.trace else None
    accountant = CycleAccountant() if observe else None
    profiler = SiteMissProfile() if observe else None
    from repro.cpu import fastpath as _fastpath

    fp_stats = _fastpath.reset_stats()
    result = run_app_experiment(name, Variant(args.variant), size_d,
                                tracer=tracer, accountant=accountant,
                                profiler=profiler)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    report = build_report(f"app-{name}", result, core_config=CoreConfig(),
                          mem_config=MemConfig(), counters=result.counters,
                          accountant=accountant, heatmap=profiler,
                          wall_time_s=result.wall_time_s,
                          fastpath=fp_stats.to_dict(),
                          extra={"size": size_d, "variant": args.variant})
    extras = []
    if accountant is not None:
        extras.append(render_stall_breakdown(accountant))
    if profiler is not None and profiler.total:
        extras.append(render_miss_heatmap(profiler))
    _emit(args, report, render_app_figure([result]), extras)
    return 0 if result.reference_ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    rows, report = _sweep(args, {"target": "table1"})
    _emit(args, report, render_table1(rows))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    observe = _observing(args)
    tracer = PipelineTracer(limit=args.trace_limit) if args.trace else None
    accountant = CycleAccountant() if observe else None
    from repro.cpu import fastpath as _fastpath

    fp_stats = _fastpath.reset_stats()
    r = measure_stream_cpi(args.name, ilp=_ILP[args.ilp],
                           threads=args.threads, tracer=tracer,
                           accountant=accountant,
                           fastpath=False if args.no_fastpath else None)
    if tracer is not None:
        _write_trace(tracer, args.trace)
    report = build_report("stream", r, core_config=CoreConfig(),
                          mem_config=MemConfig(), accountant=accountant,
                          fastpath=fp_stats.to_dict())
    rendering = (f"{args.name} [{r.mode}]: CPI {r.cpi:.3f}, "
                 f"cumulative IPC {r.cumulative_ipc:.3f} "
                 f"({r.instrs_per_thread} instrs/thread measured)")
    extras = [render_stall_breakdown(accountant)] if accountant else []
    _emit(args, report, rendering, extras)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro import check as checkmod
    from repro.check.races import DEFAULT_BUDGET

    lint_only = args.lint_src is not None and args.experiment is None
    if args.experiment is not None:
        targets = checkmod.load_experiment(args.experiment)
    elif lint_only:
        targets = []
    else:
        targets = checkmod.default_targets(
            budget=args.budget or DEFAULT_BUDGET)
    report = checkmod.run_targets(targets)
    if args.lint_src is not None:
        findings, count = checkmod.lint_paths(args.lint_src)
        report.extend(findings)
        report.files_linted = count
    if args.json:
        print(indented_json(report.to_dict()))
    else:
        print(report.render())
    threshold = {"error": checkmod.Severity.ERROR,
                 "warn": checkmod.Severity.WARNING,
                 "info": checkmod.Severity.INFO}[args.fail_on]
    return report.exit_code_at(threshold)


def _certify_verify(app_sizes: str) -> list:
    """The ``certify --verify`` gate: machine-check + dynamic replay.

    For every recordable (app, variant, size): (a) each tiled trace's
    certificate must pass its own :meth:`validate` machine check, and
    (b) the cell's simulated result must be byte-identical with the
    fast-forward (and hence all certificate guidance) disabled.  Any
    violation is a static/dynamic disagreement.
    """
    from repro.core.apps import APP_VARIANTS, run_app_experiment
    from repro.cpu import fastpath
    from repro.isa.trace import TiledTrace
    from repro.sweep.cells import runner_for
    from repro.workloads import WORKLOADS

    problems = []
    encode = runner_for("app-run").encode
    for app in sorted(APP_SIZES):
        recordable = getattr(WORKLOADS[app], "_RECORDABLE", frozenset())
        sizes = (APP_SIZES[app] if app_sizes == "all"
                 else APP_SIZES[app][:1])
        for variant in APP_VARIANTS[app]:
            if variant not in recordable:
                continue
            for size in sizes:
                label = (f"{app}/{variant.value}("
                         + ",".join(f"{k}={v}"
                                    for k, v in sorted(size.items()))
                         + ")")
                build = WORKLOADS[app].build(variant, **dict(size))
                for tid, factory in enumerate(build.factories):
                    trace = factory(None)
                    if type(trace) is not TiledTrace or trace.cert is None:
                        continue
                    for issue in trace.cert.validate(trace):
                        problems.append(
                            f"{label}/t{tid}: certificate fails its "
                            f"machine check: {issue}")
                guided = run_app_experiment(app, variant, dict(size))
                fastpath.set_default_enabled(False)
                try:
                    plain = run_app_experiment(app, variant, dict(size))
                finally:
                    fastpath.set_default_enabled(True)
                a, b = encode(guided), encode(plain)
                a["wall_time_s"] = b["wall_time_s"] = 0.0
                if json.dumps(a, sort_keys=True) != \
                        json.dumps(b, sort_keys=True):
                    diff = sorted(k for k in a
                                  if a[k] != b[k])
                    problems.append(
                        f"{label}: static/dynamic disagreement — "
                        f"certificate-guided run differs from the "
                        f"fast-forward-disabled replay in {diff}")
    return problems


#: Dual-thread replay horizon of the ``certify --pairs --verify``
#: gate, in ticks: past every stream's warm-up, long enough for the
#: guided fast-forward to land jumps on dense lattices, and cheap
#: enough to sweep all 39 fig.-2 pairs twice in a CI leg.
_PAIR_VERIFY_HORIZON = 60_000


def _certify_verify_pairs() -> list:
    """The ``certify --pairs --verify`` gate over the fig.-2 matrix.

    Per pair: (a) the composed certificate must pass its own
    :meth:`validate` machine check against freshly compiled traces;
    (b) a dual-thread replay under certificate guidance must produce
    CPIs byte-identical to the fast-forward-disabled replay; (c) if
    the guided run applied a jump, each thread's position delta must
    lie on the certified period lattice (static joint period divides
    every dynamic jump delta).
    """
    from repro.check.compose import _stream_trace, compose_pair
    from repro.core.coexec import fig2_pairs, run_pair_cpis
    from repro.cpu import fastpath
    from repro.isa.streams import ILP

    problems = []
    for a, b in fig2_pairs():
        label = f"pair {a}+{b}"
        cert = compose_pair(a, b)
        issues = cert.validate(_stream_trace(a, ILP.MAX),
                               _stream_trace(b, ILP.MAX))
        for issue in issues:
            problems.append(f"{label}: certificate fails its machine "
                            f"check: {issue}")
        if issues:
            continue
        before = fastpath.last_jump()
        guided = run_pair_cpis(a, b, ILP.MAX,
                               horizon_ticks=_PAIR_VERIFY_HORIZON,
                               fastpath=True)
        jump = fastpath.last_jump()
        plain = run_pair_cpis(a, b, ILP.MAX,
                              horizon_ticks=_PAIR_VERIFY_HORIZON,
                              fastpath=False)
        if guided != plain:
            problems.append(
                f"{label}: static/dynamic disagreement — certificate-"
                f"guided CPIs {guided} differ from the fast-forward-"
                f"disabled replay {plain}")
        if jump is not None and jump is not before:
            periods = (cert.period_a, cert.period_b)
            for tid, dp in enumerate(jump["dps"]):
                period = periods[tid] if tid < len(periods) else 0
                if period > 0 and dp % period != 0:
                    problems.append(
                        f"{label}/t{tid}: dynamic jump delta {dp} is "
                        f"off the certified period-{period} lattice")
    return problems


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.check.recurrence import certificate_inventory

    inventory = certificate_inventory(app_sizes=args.app_sizes)
    if args.pairs:
        from repro.check.compose import pair_inventory

        pinv = pair_inventory()
        inventory["compose_schema_version"] = pinv["schema_version"]
        inventory["pairs"] = pinv["pairs"]
    problems = []
    if args.verify:
        problems = _certify_verify(args.app_sizes)
        if args.pairs:
            problems.extend(_certify_verify_pairs())
        inventory["verify"] = {"ok": not problems, "problems": problems}
    payload = json.dumps(inventory, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        def _tally(entries):
            out = {}
            for e in entries:
                out[e["verdict"]] = out.get(e["verdict"], 0) + 1
            return ", ".join(f"{v}: {n}" for v, n in sorted(out.items()))

        print(f"recurrence certificates "
              f"(schema v{inventory['schema_version']})")
        print(f"  streams: {len(inventory['streams'])} "
              f"({_tally(inventory['streams'])})")
        print(f"  apps:    {len(inventory['apps'])} "
              f"({_tally(inventory['apps'])})")
        if args.pairs:
            print(f"  pairs:   {len(inventory['pairs'])} "
                  f"({_tally(inventory['pairs'])})")
        for entry in inventory["apps"]:
            windows = entry.get("windows") or []
            print(f"    {entry['subject']}: {entry['verdict']}"
                  f" [{len(windows)} window(s),"
                  f" {len(entry.get('splices') or [])} splice(s),"
                  f" fp {entry['fingerprint']}]")
        if args.verify:
            if problems:
                print(f"  VERIFY: {len(problems)} problem(s)")
                for p in problems:
                    print(f"    {p}")
            else:
                print("  VERIFY: ok — every certificate passes its "
                      "machine check; every certificate-guided run is "
                      "byte-identical with the fast-forward disabled")
    return 1 if problems else 0


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.core.coexec import fig2_pairs
    from repro.model import (
        MODEL_SCHEMA_VERSION,
        MODEL_SLACK,
        MODEL_STREAMS,
        pair_bounds,
        render_model_pairs,
        render_model_streams,
        stream_bounds,
    )

    ilps = [_ILP[args.ilp]] if args.ilp else [ILP.MIN, ILP.MED, ILP.MAX]
    stream_entries = []
    table = []
    for name in MODEL_STREAMS:
        for ilp in ilps:
            solo = stream_bounds(name, ilp=ilp)
            dual = stream_bounds(name, ilp=ilp, sibling=name)
            table.append((solo, dual))
            stream_entries.append({"stream": name, "ilp": ilp.name,
                                   "solo": solo.to_dict(),
                                   "dual": dual.to_dict()})
    pair_entries = []
    pair_table = []
    for ilp in ilps:
        for a, b in fig2_pairs():
            pb = pair_bounds(a, b, ilp=ilp)
            pair_table.append(pb)
            pair_entries.append(pb.to_dict())
    report = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "model",
        "generator": "repro.model",
        "config": {"core": CoreConfig().to_dict(),
                   "mem": MemConfig().to_dict()},
        "slack": MODEL_SLACK,
        "streams": stream_entries,
        "pairs": pair_entries,
    }
    rendering = "\n\n".join([render_model_streams(table),
                             render_model_pairs(pair_table)])
    _emit(args, report, rendering)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.top import run_top

    return run_top(args.path, interval=args.interval, once=args.once,
                   duration=args.duration, directory=args.telemetry_dir)


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import latest_log, read_events
    from repro.telemetry import render_summary as render_telemetry
    from repro.telemetry import summarize
    from repro.telemetry.bus import default_dir

    path = (args.path if args.path is not None
            else latest_log(args.telemetry_dir))
    if path is None:
        raise UsageError(f"no telemetry log found under "
                         f"{(args.telemetry_dir or default_dir())!r}; "
                         f"run a sweep first or pass a log path")
    try:
        events = list(read_events(path))
    except OSError as e:
        raise UsageError(f"cannot read telemetry log {path!r}: {e}")
    summary = summarize(events)
    if args.json:
        print(indented_json(summary))
    else:
        print(f"log: {path}")
        print(render_telemetry(summary))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import run_server
    from repro.serve.scheduler import CellScheduler

    if getattr(args, "no_fastpath", False):
        from repro.cpu.fastpath import set_default_enabled

        set_default_enabled(False)
    try:
        scheduler = CellScheduler(
            cache_dir=None if args.no_cache else args.cache_dir,
            jobs=args.jobs,
            check=not args.no_check,
            telemetry_dir=args.telemetry_dir,
            telemetry=not args.no_telemetry,
        )
    except CacheError as e:
        raise UsageError(
            f"--cache-dir {args.cache_dir!r} is unusable: {e} "
            f"(pick a writable directory or pass --no-cache)")
    if scheduler.telemetry is not None:
        print(f"telemetry: {scheduler.telemetry.path} "
              f"(view with `repro top --telemetry-dir ...`)",
              file=sys.stderr)
    return run_server(scheduler, host=args.host, port=args.port,
                      ready_file=args.ready_file)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "fig1":
        return _cmd_fig1(args)
    if args.command == "fig2":
        return _cmd_fig2(args)
    if args.command == "app":
        return _cmd_app(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "certify":
        return _cmd_certify(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError("unreachable")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (UsageError, ConfigError, CacheError) as e:
        # Same shape and exit status as argparse's own option errors.
        print(format_cli_error(parser.prog, e), file=sys.stderr)
        return 2
    except ReproError as e:
        print(format_cli_error(parser.prog, e), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
