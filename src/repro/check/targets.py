"""Check targets: the units of work one ``repro check`` run analyzes.

A *target* bundles one analyzable thing — a synthetic stream, a raw
instruction window, a multi-threaded program, a workload build, an SPR
span request — with the passes that apply to it.  ``default_targets``
enumerates everything the repo ships: every §4 stream at every ILP
level (hazard + unit passes) and every multi-threaded workload variant
at its smallest size (race + span passes).  Experiment files export
their own ``TARGETS`` list (see :mod:`repro.check.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.check import hazards, races, spans, units
from repro.check.findings import Finding, Severity
from repro.common.addrspace import AddressSpace
from repro.isa.instr import Instr
from repro.isa.streams import ILP, STREAM_OPS, StreamSpec


class CheckTarget:
    """One analyzable thing; subclasses run the passes that apply."""

    name: str = ""

    def check(self) -> List[Finding]:
        raise NotImplementedError


@dataclass
class StreamTarget(CheckTarget):
    """A synthetic stream: hazard/ILP verification + unit legality."""

    spec: StreamSpec
    declared_ilp: Optional[int] = None
    window: int = hazards.DEFAULT_WINDOW
    core_config: Any = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"stream {self.spec.name!r} ({self.spec.ilp.name} ILP)"

    def check(self) -> List[Finding]:
        findings = hazards.verify_stream(
            self.spec, window=self.window, declared_ilp=self.declared_ilp)
        findings.extend(units.verify_ops(
            self.name, self.spec.ops, core_config=self.core_config))
        # Sixth pass: the analytic machine model's provable CPI
        # interval (imported lazily — check must not depend on model
        # at module load, model reuses check.hazards).
        from repro.model.oracle import stream_model_findings

        findings.extend(stream_model_findings(
            self.spec, core_config=self.core_config))
        return findings


@dataclass
class InstrsTarget(CheckTarget):
    """A raw instruction window with a declared ILP."""

    label: str
    instrs: Sequence[Instr]
    declared_ilp: int
    core_config: Any = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.label

    def check(self) -> List[Finding]:
        findings = hazards.verify_instrs(
            self.label, self.instrs, self.declared_ilp)
        findings.extend(units.verify_ops(
            self.label, [i.op for i in self.instrs],
            core_config=self.core_config))
        return findings


@dataclass
class PairTarget(CheckTarget):
    """A fig.-2 co-execution pair: exclusive-unit contention advisory."""

    stream_a: str
    stream_b: str

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"pair {self.stream_a} x {self.stream_b}"

    def check(self) -> List[Finding]:
        findings: List[Finding] = []
        for s in (self.stream_a, self.stream_b):
            if s not in STREAM_OPS:
                findings.append(Finding(
                    check="units", severity=Severity.ERROR, site=self.name,
                    message=f"unknown stream {s!r}",
                    hint=f"known streams: {sorted(STREAM_OPS)}",
                ))
        if findings:
            return findings
        findings = units.pair_contention(
            self.stream_a, STREAM_OPS[self.stream_a],
            self.stream_b, STREAM_OPS[self.stream_b])
        from repro.model.oracle import pair_model_findings

        findings.extend(pair_model_findings(self.stream_a, self.stream_b))
        return findings


@dataclass
class ProgramTarget(CheckTarget):
    """A multi-threaded program: happens-before race detection."""

    label: str
    factories: Sequence[Callable[[Any], Iterator[Instr]]]
    aspace: AddressSpace
    budget: int = races.DEFAULT_BUDGET

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.label

    def check(self) -> List[Finding]:
        return races.detect_races(
            self.factories, self.aspace, name=self.label, budget=self.budget)


@dataclass
class SpanTarget(CheckTarget):
    """An SPR span request: window + lookahead validation."""

    label: str
    total_items: int
    bytes_per_item: int
    fraction: float = 0.25
    lookahead: int = 1
    mem_config: Any = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.label

    def check(self) -> List[Finding]:
        return spans.verify_span_request(
            self.label, self.total_items, self.bytes_per_item,
            fraction=self.fraction, lookahead=self.lookahead,
            mem_config=self.mem_config)


@dataclass
class WorkloadTarget(CheckTarget):
    """A workload build: race detection plus span-plan validation."""

    app: str
    variant: Any   # repro.workloads.common.Variant (or its .value string)
    size: Dict[str, Any] = field(default_factory=dict)
    budget: int = races.DEFAULT_BUDGET

    @property
    def name(self) -> str:  # type: ignore[override]
        variant = getattr(self.variant, "value", self.variant)
        size = ",".join(f"{k}={v}" for k, v in sorted(self.size.items()))
        return f"{self.app}/{variant}({size})"

    def check(self) -> List[Finding]:
        from repro.core.apps import APP_SIZES
        from repro.workloads import WORKLOADS
        from repro.workloads.common import Variant

        if self.app not in WORKLOADS:
            return [Finding(
                check="races", severity=Severity.ERROR, site=self.name,
                message=f"unknown application {self.app!r}",
                hint=f"known applications: {sorted(WORKLOADS)}",
            )]
        variant = (self.variant if isinstance(self.variant, Variant)
                   else Variant(self.variant))
        size = dict(self.size) or dict(APP_SIZES[self.app][0])
        build = WORKLOADS[self.app].build(variant, **size)
        findings: List[Finding] = []
        plan = build.meta.get("span_plan")
        if plan is not None:
            findings.extend(spans.verify_span_plan(self.name, plan))
        if build.num_threads >= 2:
            findings.extend(races.detect_races(
                build.factories, build.aspace, name=self.name,
                budget=self.budget))
        return findings


@dataclass
class RecurrenceTarget(CheckTarget):
    """A recordable workload build: static recurrence certification.

    The seventh pass — certifies every tiled trace of the build
    (:mod:`repro.check.recurrence`) and machine-checks each
    certificate against its own trace.  INFO findings summarize the
    recurrence structure; an ERROR means the pass disagrees with
    itself, which must fail the check run.
    """

    app: str
    variant: Any   # repro.workloads.common.Variant (or its .value string)
    size: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:  # type: ignore[override]
        variant = getattr(self.variant, "value", self.variant)
        size = ",".join(f"{k}={v}" for k, v in sorted(self.size.items()))
        return f"recurrence {self.app}/{variant}({size})"

    def check(self) -> List[Finding]:
        from repro.check.recurrence import recurrence_findings

        return recurrence_findings(self.app, self.variant, self.size)


@dataclass
class ComposeTarget(CheckTarget):
    """One fig.-2 stream pair: static pair-composition certification.

    The eighth pass — composes the two solo recurrence lattices into a
    :class:`~repro.check.compose.PairCertificate` and machine-checks
    every claim against the freshly compiled traces.  INFO findings
    summarize the joint lattice; an ERROR means the pass disagrees
    with itself, which must fail the check run.
    """

    stream_a: str
    stream_b: str

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"compose {self.stream_a}+{self.stream_b}"

    def check(self) -> List[Finding]:
        from repro.check.compose import compose_findings

        return compose_findings(self.stream_a, self.stream_b)


def stream_targets(core_config: Any = None) -> List[CheckTarget]:
    """Every shipped stream at every ILP level (42 targets)."""
    return [
        StreamTarget(StreamSpec(name, ilp=ilp), core_config=core_config)
        for name in sorted(STREAM_OPS)
        for ilp in ILP
    ]


def workload_targets(budget: int = races.DEFAULT_BUDGET) -> List[CheckTarget]:
    """Every multi-threaded workload variant at its smallest size."""
    from repro.core.apps import APP_SIZES, APP_VARIANTS
    from repro.workloads.common import Variant

    solo = {Variant.SERIAL, Variant.SW_PREFETCH}
    return [
        WorkloadTarget(app, variant, dict(APP_SIZES[app][0]), budget=budget)
        for app in sorted(APP_VARIANTS)
        for variant in APP_VARIANTS[app]
        if variant not in solo
    ]


def recurrence_targets() -> List[CheckTarget]:
    """Every recordable workload variant at its smallest size."""
    from repro.core.apps import APP_SIZES, APP_VARIANTS
    from repro.workloads import WORKLOADS

    out: List[CheckTarget] = []
    for app in sorted(APP_VARIANTS):
        recordable = getattr(WORKLOADS[app], "_RECORDABLE", frozenset())
        for variant in APP_VARIANTS[app]:
            if variant in recordable:
                out.append(RecurrenceTarget(
                    app, variant, dict(APP_SIZES[app][0])))
    return out


def compose_targets() -> List[CheckTarget]:
    """Every fig.-2 pair (fp x fp, int x int, fp x int; 39 targets)."""
    from repro.core.coexec import fig2_pairs

    return [ComposeTarget(a, b) for a, b in fig2_pairs()]


def default_targets(budget: int = races.DEFAULT_BUDGET) -> List[CheckTarget]:
    """Everything the repo ships, checkable without simulating."""
    return [*stream_targets(), *workload_targets(budget=budget),
            *recurrence_targets(), *compose_targets()]
