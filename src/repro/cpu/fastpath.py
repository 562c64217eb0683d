"""Hierarchical steady-state cycle detection with exact fast-forward.

The §4 synthetic streams drive the SMT core into an *exactly periodic*
microarchitectural orbit within a few hundred ticks; co-executing pairs
lock into a joint super-period (the lcm of the solo orbits as seen at
retirement boundaries); the tiled applications (mm/lu/cg/bt) recur at
tile/phase granularity once the caches reach steady state.  The machine
is deterministic and every latency in it is a constant, so once the
tick-relative state at one retirement boundary equals the tick-relative
state at an earlier boundary, the entire future is a replay of that
period — ``k`` whole periods can be applied in O(state) instead of
O(k · period).

Detection is two-level.  A *probe* runs at every boundary and hashes a
cheap signature (thread states, queue depths, source-cursor phase);
full canonical-state equality implies signature equality, so nothing
is lost by only *capturing* once a signature recurs.  The first
recurrence at a plausible distance latches a candidate period and
switches to the capture cadence: one full canonical capture per
candidate period, compared against the one capture retained per
fingerprint (the newest).  Tiled runs skip the probing: they capture
only at the phases their static recurrence certificate proves aligned
(:mod:`repro.check.recurrence`).

Exactness, not approximation
----------------------------
A jump is taken only when the machine state at two boundaries ``t1 <
t2`` is equal up to the two symmetries of the dynamics:

* **time translation** — every tick-valued field is compared relative
  to "now", with fields proven inert (older than any predicate that
  reads them can reach) clamped to a sentinel;
* **memory translation** — a memory walk ``Δ`` bytes further into its
  region sees cache sets, prefetch tags and stream heads shifted by
  ``ΔL`` lines.  For the synthetic streams the walk is a cycle, so the
  shift acts *circularly within the region*; for tiled applications
  the per-region reference vector advances *linearly* by a constant
  per-phase delta.  Either way the shift must be set-preserving in
  both caches (``Δ ≡ 0`` modulo line size × lcm of L1/L2 set counts —
  equal reference residues in the fingerprint guarantee it), which
  makes per-set LRU evolution translation-invariant.

The fingerprint *is* the canonical state (a nested tuple), and the
``dict`` lookup that finds a repeat performs a full equality check —
a match is a proof, not a hash heuristic.  Raw cache/prefetch contents
are then verified element-by-element under the line translation.
Inert residue from an earlier phase — an orphaned prefetch tag whose
line left L2, a dead stream head the LRU table never displaced, a
stale cache line outside the walk — may instead verify *stationary*
(equal untranslated); such lines are readable only when a walk comes
within prefetch reach of them, so the jump's period count is capped to
keep every moving walk short of every stationary line (streams leave
only the region behind their ascending head; tiled walks also leave
the span below the recurrence window's floor).  Tiled jumps are
additionally capped by the recorded schedule
(:meth:`repro.isa.trace.TiledTrace.extrapolation_limit`): every
extrapolated phase must replay the same pattern with the same
reference deltas and keep prefetch overshoot clear of each region's
top edge.  On a verified repeat with period ``P = t2 - t1``, the true
state at ``t2 + k·P`` is obtained in closed form: shift every live
tick field by ``k·P``, translate memory by ``k·ΔL``, advance each
trace cursor by ``k·Δpos``, and extrapolate every monotone counter by
``k × (its delta over the period)``.  The run then resumes exact
stepping for the residue, which is why ``CoreResult``s, run reports,
stall accounting and golden fixtures are byte-identical with the
fast-forward on or off (the equivalence suite and golden/determinism
suites enforce this).

A memory-stream wrap (the wrap-around episode where the walk re-enters
the bottom of its region and prefetch overshoot breaks the symmetry)
is *spliced*: the detector sleeps through the episode — the wrap ticks
are stepped exactly and land in the ledger like any others — and the
proven capture cadence picks the orbit back up on the far side.

When it stands down
-------------------
The detector arms only when every thread's instruction source is a
compiled or tiled trace (:mod:`repro.isa.trace`); tracers and
profilers need every tick observed, so an enabled ``Tracer`` or an
attached delinquency profiler disables it.  A run with a tiled thread
arms only when every thread carries a ``recurrent`` certificate, and
stands down when the certificate-guided captures never pair.  Captures
abort conservatively on anything the canonical form cannot prove periodic:
effect-bearing µops (sync vars, markers), live generator parts, or
in-flight addresses a translation cannot follow.  ``--no-fastpath`` on
the CLI forces the slow path for A/B comparison.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple


from repro.cpu.thread import ThreadState, _FAR_FUTURE
from repro.cpu.units import UNIT_NAMES
from repro.isa.trace import ChainedSource, CompiledTrace, TiledTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.core import SMTCore

# -- module-wide default ----------------------------------------------

_default_enabled = True


class FastpathStats:
    """Process-wide fast-forward accounting (``repro.telemetry``).

    Why the fast-forward engaged — or declined to — used to be
    invisible: a sweep that silently stood down just ran 50x slower.
    Every :class:`~repro.cpu.core.SMTCore` run records here what the
    detector did, keyed by *reason*:

    * ``stand_downs`` — runs (or mid-run transitions) where detection
      was off entirely: ``disabled`` (``--no-fastpath``/default off),
      ``tracer-active``, ``profiler-active``, ``plain-generator``
      (an instruction source that is not a compiled trace),
      ``no-threads`` (a core run with no threads bound — defensive,
      the core rejects that earlier), ``probe-budget`` (signature
      probing never latched a period), ``capture-budget``,
      ``aperiodic``, ``horizon``, ``cert-none`` (a recurrence
      certificate proves no phase distance recurs, so detection is
      skipped outright), ``cert-absent`` (a run with a tiled thread
      where some thread has no certificate, or the certificates
      disagree — tiled runs capture only where a certificate says
      to), ``cert-mismatch`` (certificate-guided capture never
      revisited a canonical state — the certificate is wrong for this
      run, which stands down);
    * ``capture_aborts`` — boundary captures the canonical form
      rejected, attributed to the *first thread state that broke
      canonicalization*: ``effectful-op`` (sync vars/markers in
      flight), ``unmapped-addr``, ``off-rob-dep``, ``inactive-trace``.
      A pair run that canonicalizes thread 0 but trips on thread 1
      counts here (with the reason), never as a stand-down;
    * acceptance counters — ``jumps``, ``ticks_skipped`` (vs
      ``ticks_total`` stepped+skipped), ``captures``,
      ``verify_failures`` (key matched, memory verification failed),
      ``wrap_sleeps`` (memory-stream wrap episodes slept through);
    * certificate counters — ``cert_runs`` (runs armed in
      certificate-guided mode), ``cert_captures`` (captures fired at
      statically aligned phases), ``cert_jumps`` (jumps whose anchor
      pair formed under certificate guidance).  Kept separate from
      the dynamic counters so certificate-guided cells land in their
      own acceptance column;
    * pair-certificate counters — ``pair_cert_runs`` /
      ``pair_cert_captures`` / ``pair_cert_jumps``, the dual-thread
      analogues driven by a :class:`~repro.check.compose.
      PairCertificate` (joint lattice residue capture).  The matching
      stand-downs are ``pair-cert-none`` (the composition proves a
      side admits no sound translation) and ``pair-cert-mismatch``
      (the certificate disagrees with the traces or its guided
      captures never paired — dynamic detection takes over).

    The counters are *observers only*: they never influence detection,
    so results stay byte-identical whether anyone reads them.  Workers
    report per-cell deltas by ``reset()`` before / ``to_dict()`` after
    each cell; the module-level singleton (:func:`stats`) makes that
    cheap without threading a handle through every driver.
    """

    __slots__ = ("runs", "armed", "captures", "jumps", "ticks_skipped",
                 "ticks_total", "verify_failures", "wrap_sleeps",
                 "cert_runs", "cert_captures", "cert_jumps",
                 "pair_cert_runs", "pair_cert_captures",
                 "pair_cert_jumps", "stand_downs", "capture_aborts")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.runs = 0
        self.armed = 0
        self.captures = 0
        self.jumps = 0
        self.ticks_skipped = 0
        self.ticks_total = 0
        self.verify_failures = 0
        self.wrap_sleeps = 0
        self.cert_runs = 0
        self.cert_captures = 0
        self.cert_jumps = 0
        self.pair_cert_runs = 0
        self.pair_cert_captures = 0
        self.pair_cert_jumps = 0
        self.stand_downs: dict = {}
        self.capture_aborts: dict = {}

    def bump(self, table: dict, reason: str) -> None:
        table[reason] = table.get(reason, 0) + 1

    @property
    def coverage(self) -> float:
        """Fraction of simulated ticks crossed by fast-forward jumps."""
        return (self.ticks_skipped / self.ticks_total
                if self.ticks_total else 0.0)

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "armed": self.armed,
            "captures": self.captures,
            "jumps": self.jumps,
            "ticks_skipped": self.ticks_skipped,
            "ticks_total": self.ticks_total,
            "verify_failures": self.verify_failures,
            "wrap_sleeps": self.wrap_sleeps,
            "cert_runs": self.cert_runs,
            "cert_captures": self.cert_captures,
            "cert_jumps": self.cert_jumps,
            "pair_cert_runs": self.pair_cert_runs,
            "pair_cert_captures": self.pair_cert_captures,
            "pair_cert_jumps": self.pair_cert_jumps,
            "stand_downs": {k: self.stand_downs[k]
                            for k in sorted(self.stand_downs)},
            "capture_aborts": {k: self.capture_aborts[k]
                               for k in sorted(self.capture_aborts)},
        }


_stats = FastpathStats()


def stats() -> FastpathStats:
    """The process-wide accumulator (reset at each cell/run boundary
    by whoever is measuring — the sweep workers and the CLI)."""
    return _stats


def reset_stats() -> FastpathStats:
    _stats.reset()
    return _stats


_last_jump: Optional[dict] = None


def last_jump() -> Optional[dict]:
    """Test/debug hook: ``{"period", "k", "dps"}`` of the most recent
    applied jump in this process (``dps`` = per-thread position
    deltas of the anchor pair).  The recurrence property suite checks
    every observed ``dps`` against the statically certified period
    lattice; the hook is an observer only and never feeds back into
    detection."""
    return _last_jump


def merge_stats(into: dict, snap: dict) -> dict:
    """Sum one ``FastpathStats.to_dict()`` snapshot into ``into``."""
    for k, v in snap.items():
        if isinstance(v, dict):
            sub = into.setdefault(k, {})
            for r, n in v.items():
                sub[r] = sub.get(r, 0) + n
        else:
            into[k] = into.get(k, 0) + v
    return into


#: Pair certificate staged for the next run's arm gate.  Set by
#: :func:`attach_pair_certificate` just before a dual-thread run and
#: consumed (cleared) by the first ``prepare()`` — the certificate is
#: per-run, never process-sticky, so a later cell cannot inherit a
#: stale hint.
_pending_pair_cert: Optional[Any] = None


def attach_pair_certificate(cert: Optional[Any]) -> None:
    """Stage a :class:`~repro.check.compose.PairCertificate` for the
    next dual-thread run.

    Hints, never authority: ``prepare()`` re-derives both sides'
    lattices from the actual traces and refuses guidance on any
    mismatch (``pair-cert-mismatch``, dynamic detection takes over); a
    ``none`` verdict stands the detector down outright
    (``pair-cert-none``) because the composition *proves* the dynamic
    detector cannot jump either.  Every guided jump still passes the
    full structural snapshot proof."""
    global _pending_pair_cert
    _pending_pair_cert = cert


def set_default_enabled(on: bool) -> None:
    """Set the process-wide fast-forward default (CLI --no-fastpath).

    A runtime toggle rather than a ``CoreConfig`` field on purpose: the
    fast-forward provably does not change results, so it must not
    perturb config fingerprints embedded in reports and cache keys.
    """
    global _default_enabled
    _default_enabled = bool(on)


def default_enabled() -> bool:
    return _default_enabled


_STATE_CODE = {
    ThreadState.ACTIVE: 0,
    ThreadState.HALTED: 1,
    ThreadState.DONE: 2,
}

#: Fingerprint/signature table bound; cleared wholesale if exceeded.
_MAX_ENTRIES = 4096
#: Consecutive capture *aborts* (canonicalisation rejections — an
#: effectful op in flight, an unmapped address, an off-ROB dependency)
#: before the cell stands down attributing the dominant abort reason.
#: A pair that captures thread 0 cleanly but always aborts on thread 1
#: can never form an anchor; without this cap it would pay a failed
#: capture per cadence tick until a generic budget tripped, and the
#: stats would not say why.  Well above the handful of aborts a part
#: transition's marker flight causes.
_ABORT_LIMIT = 64
#: Full captures allowed per trace part (refunded by a successful
#: jump).  Caps the detector's total overhead on workloads it cannot
#: help: once spent without a jump, the run proceeds at full speed.
_CAPTURE_BUDGET = 4096
#: Signature probes per trace part before detection stands down.
#: Probes are ~two orders of magnitude cheaper than captures, so the
#: budget is correspondingly larger — large enough that probing every
#: boundary of an unproven stretch (the upgrade path) never trips it
#: within the measurement horizons.
_SIG_BUDGET = 1 << 18
#: Signature sightings retained.  Must hold ~three canonical periods
#: of distinct boundary signatures: the upgrade rule needs the same
#: signature sighted three times (two equal intervals) to confirm a
#: longer period through a junk latch.
_SIG_ENTRIES = 1 << 15
#: Smallest signature-recurrence distance (ticks) accepted as a period
#: candidate.
_SIG_MIN0 = 8
#: Unproven-candidate misses captured at the tight cadence before the
#: cadence backs off.  Sub-period latches whose multiple closes the
#: canonical period are found by the burst path, so the grace window
#: only needs to cover small commensurate ratios.
_MISS_GRACE = 24
#: Captures spent within one trace part without a *single* canonical
#: key hit (burst included, budget excluded) before the detector
#: concludes the joint state never recurs at a usable distance —
#: threads whose cycle lengths are incommensurate drift phase forever
#: — and stands down rather than paying capture cost to the budget.
_APERIODIC_CAPS = 384
#: Ticks into a part without a single canonical key hit (and with a
#: meaningful number of captures tried) before the same conclusion is
#: drawn on time instead of capture count — a backed-off cadence can
#: otherwise stretch hopeless probing across most of a run.
_APERIODIC_TICKS = 1 << 15
#: Consecutive capture misses before signature probing resumes *in
#: parallel* with the capture cadence.  A wrap episode can stretch one
#: pass by a non-multiple of the period, leaving the rigid cadence
#: off-phase forever; a fresh signature latch re-aligns it.  Kept low
#: because misses also back the capture cadence off exponentially —
#: probing (cheap, every boundary) is the fast re-acquisition path.
_REPROBE_MISSES = 2
#: Key misses (captures that landed but matched no retained anchor)
#: tolerated on a candidate whose keys have *never* hit before burst
#: capture kicks in.  A cadence that keeps producing fresh canonical
#: states is commensurate with nothing — e.g. a signature-space
#: subharmonic of the canonical period whose capture grid never
#: revisits a canonical phase (gcd(candidate, period) < period).  The
#: burst anchors every boundary across ~4 candidate periods, so the
#: first canonical recurrence inside that span pairs at the *exact*
#: true period, whatever its relation to the candidate.
_BURST_MISSES = 6
#: Consecutive certificate-aligned captures whose canonical key never
#: revisited a retained anchor before certificate guidance is declared
#: wrong for this run (``cert-mismatch``).  One window pairs after two
#: aligned captures, so two dozen straight misses means the static and
#: dynamic views genuinely disagree — not that the run is still
#: warming up.  A tiled run then stands down; a pair run hands itself
#: to dynamic detection.
_CERT_STRIKES = 24
#: Initial tick backoff between pair-certificate-guided captures that
#: missed (no canonical key hit).  Arithmetic lattices are dense (a
#: handful of positions), so a residue crossing alone cannot throttle
#: capture cost during warm-up; misses double the backoff up to
#: :data:`_PAIR_BACKOFF_MAX` and any key hit resets it.
_PAIR_BACKOFF0 = 8
_PAIR_BACKOFF_MAX = 4096
#: Pair-certificate anchor table bound: joint residue vectors already
#: captured once.  Recurrences of an anchored vector share its
#: canonical key, so every later capture there pairs immediately; a
#: handful per co-execution epoch is plenty, and the oldest anchor is
#: evicted when a new epoch (a vector wrap re-aligning the threads)
#: mints fresh ones.
_PAIR_ANCHORS = 8


class _Capture:
    """One boundary's canonical state plus the raw data a jump needs."""

    __slots__ = ("tick", "key", "src", "mem_refs", "counters",
                 "unit_counts", "thread_counters", "gseq", "acct",
                 "mem_raw")

    def __init__(self, tick: int, key: tuple, src: tuple, mem_refs: tuple,
                 counters: tuple, unit_counts: tuple,
                 thread_counters: tuple, gseq: int, acct: Any,
                 mem_raw: tuple) -> None:
        self.tick = tick
        self.key = key
        self.src = src                      # per thread: None | (part, pos, trace)
        self.mem_refs = mem_refs            # per thread: None | head | refs tuple
        self.counters = counters
        self.unit_counts = unit_counts
        self.thread_counters = thread_counters
        self.gseq = gseq
        self.acct = acct
        self.mem_raw = mem_raw


class FastPath:
    """Per-core hierarchical steady-state detector and fast-forward."""

    def __init__(self, core: "SMTCore") -> None:
        self.core = core
        self._st = _stats
        self.jumps = 0
        self.ticks_skipped = 0
        self._armed = False
        # Canonical fingerprint -> the newest capture with that key.
        # Only consulted at the capture cadence.
        self._seen: dict = {}
        # Cheap per-boundary signature -> [first sighting, last
        # sighting, last recurrence interval].  The first sighting
        # grows multiples until one clears the distance floor; the
        # last-interval pair powers the unproven-latch upgrade rule.
        self._sig_seen: dict = {}
        self._sig_last: Optional[tuple] = None
        self._probes = 0
        self._sleep_until = -1
        # Active trace part per thread at the last probe/capture.  A
        # part transition (warm-up ending, a marker retiring) changes
        # the dynamics, so detection restarts from probing.
        self._last_parts: Optional[tuple] = None
        # Candidate (then proven) period: once latched, one full
        # capture per period at the latching phase carries detection.
        self._hint_period = 0
        self._hint_next = -1
        self._hint_proven = False
        self._hint_misses = 0
        self._hint_hits = 0
        self._retry_at = 0
        self._vf_streak = 0
        self._capts = 0
        self._key_misses = 0
        self._burst_until = 0
        self._burst_done = False
        self._part_hit = False
        self._part_t0 = 0
        # Consecutive capture aborts in the current detection era, and
        # the per-reason tally behind them.  A cell whose every capture
        # attempt aborts (e.g. a pair that captures thread 0 cleanly
        # but always aborts on thread 1) stands down with the dominant
        # abort reason instead of burning the probe budget.
        self._abort_streak = 0
        self._abort_reasons: dict = {}
        # The last phase (tiled) or lattice-residue (pair) vector the
        # certificate-guided probes saw, and per tiled thread its
        # phase -> reference-residue memo.
        self._last_phases: Optional[tuple] = None
        self._res_cache: list = []
        # Certificate-guided capture (repro.check.recurrence): per
        # thread, the statically certified aligned phase set.  Hints
        # only — pairing still runs the full canonical proof.  The only
        # capture mode a tiled run has.
        self._cert_mode = False
        self._cert_aligned: Optional[list] = None
        self._cert_strikes = 0
        # Pair-certificate-guided capture (repro.check.compose): per
        # thread, the statically certified position-lattice generator.
        # A joint lattice-residue vector seen twice provably lies on
        # the steady-state joint limit cycle (warm-up states never
        # recur), so fresh revisits mint capture anchors on a backoff
        # cadence — no signature warmup needed.  Anchored vectors
        # (captured once already) capture at every recurrence: the
        # canonical key is a function of the joint residues, so each
        # such capture pairs with the anchor held in the key table.  A
        # key miss at an anchored vector means the static lattice and
        # the dynamics disagree (that is what strikes count).
        self._pair_cert_mode = False
        self._pair_periods: Optional[tuple] = None
        self._pair_res_seen: dict = {}
        self._pair_caught: dict = {}
        self._pair_strikes = 0
        self._pair_next = 0
        self._pair_backoff = _PAIR_BACKOFF0
        cfg = core.config
        # Unit busy/penalty predicates look back at most one interval:
        # next_free older than that is inert and clamps to a sentinel.
        self._max_interval = max(tm.interval for tm in cfg.timings.values())
        hier = core.hierarchy
        ls = hier.config.line_size
        self._line_size = ls
        # Offset phase modulus: equal phases mod this guarantee the line
        # shift between two captures is whole and set-preserving in both
        # caches (ΔL ≡ 0 mod each num_sets).
        self._phase_mod = ls * math.lcm(hier.l1.num_sets, hier.l2.num_sets)
        # Forward head-room (bytes) a monotone jump must leave before
        # the region end: the prefetcher reads up to `degree` lines
        # ahead, plus slack.
        self._guard_bytes = (hier.config.prefetch_degree + 2) * ls

    # ------------------------------------------------------------------
    # Arm / gate
    # ------------------------------------------------------------------

    def prepare(self) -> bool:
        """Decide eligibility at run() start; False removes all hot-loop
        cost (the core drops its reference for the whole run)."""
        core = self.core
        st = self._st
        if getattr(core.hierarchy, "profiler", None) is not None:
            st.bump(st.stand_downs, "profiler-active")
            return False
        if not core.threads:
            # Defensive only: SMTCore.run() rejects thread-less runs
            # before it ever consults the fast-forward.
            st.bump(st.stand_downs, "no-threads")
            return False
        for th in core.threads:
            if not isinstance(th.gen,
                              (ChainedSource, CompiledTrace, TiledTrace)):
                st.bump(st.stand_downs, "plain-generator")
                return False
        self._last_phases = None
        self._res_cache = [dict() for _ in core.threads]
        self._cert_mode = False
        self._cert_aligned = None
        self._cert_strikes = 0
        self._pair_cert_mode = False
        self._pair_periods = None
        self._pair_res_seen = {}
        self._pair_caught = {}
        self._pair_strikes = 0
        self._pair_next = 0
        self._pair_backoff = _PAIR_BACKOFF0
        global _pending_pair_cert
        pcert = _pending_pair_cert
        _pending_pair_cert = None
        if pcert is not None and not self._arm_pair_cert(pcert):
            return False
        if any(type(th.gen) is TiledTrace for th in core.threads):
            # Tiled runs capture only at the phases a certificate proves
            # aligned: µarch state at matching positions of *different*
            # tiles never matches, so only the statically certified
            # tile/iteration distances can pair.
            certs = [getattr(th.gen, "cert", None) for th in core.threads]
            verdicts = {None if c is None else c.verdict for c in certs}
            if verdicts == {"none"}:
                # The certificate proves no phase distance admits a
                # constant set-preserving forward shift — exactly the
                # match the tiled pairing rules require — so no capture
                # could pair.  Skip the whole hot-loop cost.
                st.bump(st.stand_downs, "cert-none")
                return False
            if verdicts != {"recurrent"}:
                st.bump(st.stand_downs, "cert-absent")
                return False
            self._cert_mode = True
            self._cert_aligned = [
                frozenset(c.aligned_phases()) for c in certs]
            st.cert_runs += 1
        self._armed = True
        st.armed += 1
        return True

    def on_boundary(self, t: int, eff_limit: int) -> int:
        """Called by run() at each boundary tick before any stage.

        Returns ``t`` to continue exact stepping, or the landing tick
        after a verified fast-forward of whole periods.
        """
        if not self._armed or t < self._sleep_until:
            return t
        if self._cert_mode:
            return self._cert_probe(t, eff_limit)
        if self._pair_cert_mode:
            return self._pair_cert_probe(t, eff_limit)
        if t < self._burst_until:
            # Burst capture: anchor every boundary until a canonical
            # recurrence pairs at the exact true period.
            return self._on_hint(t, eff_limit)
        if self._hint_period:
            if t >= self._hint_next:
                self._hint_next = t + self._hint_period
                return self._on_hint(t, eff_limit)
            if not self._hint_proven \
                    or self._hint_misses >= _REPROBE_MISSES:
                # Unproven candidates keep the cheap probing running in
                # parallel so a longer true period can upgrade the
                # latch; a proven cadence that lost the orbit's phase
                # (a wrap stretched the pass by a non-multiple of the
                # period) probes for a fresh latch to re-align it.
                return self._probe(t)
            return t
        return self._probe(t)

    def _reset_detection(self, parts: Optional[tuple], t: int = 0) -> None:
        """Restart detection from probing (part transition, or a pair
        certificate that struck out)."""
        self._last_parts = parts
        self._part_t0 = t
        self._sig_seen.clear()
        self._sig_last = None
        self._probes = 0
        self._seen.clear()
        self._hint_period = 0
        self._hint_next = -1
        self._hint_proven = False
        self._hint_misses = 0
        self._hint_hits = 0
        self._retry_at = 0
        self._vf_streak = 0
        self._capts = 0
        self._key_misses = 0
        self._burst_until = 0
        self._burst_done = False
        self._part_hit = False
        self._abort_streak = 0
        self._abort_reasons.clear()

    # ------------------------------------------------------------------
    # Level 0: certificate-guided capture (statically aligned phases)
    # ------------------------------------------------------------------

    def _cert_probe(self, t: int, eff_limit: int) -> int:
        """Capture only at phases the recurrence certificate proves
        aligned, skipping the signature-probe warmup entirely.

        The certificate is a hint, never an authority: anchors pair
        through the same canonical-key equality and ``_try_pair``
        proof as dynamic detection, so a wrong certificate can cost
        captures but not correctness.  When aligned captures
        persistently fail to revisit a canonical state, the static and
        dynamic views disagree — record ``cert-mismatch`` and stand
        the run down.
        """
        aligned = self._cert_aligned
        if aligned is None:     # pragma: no cover — cert mode sets it
            return t
        phs = []
        for th in self.core.threads:
            gen: Any = th.gen   # cert mode: every source is TiledTrace
            if th.gen_done or gen.pos >= gen.count:
                phs.append(-1)
            else:
                phs.append(gen.phase_of(gen.pos))
        pht = tuple(phs)
        if pht == self._last_phases:
            return t
        self._last_phases = pht
        live = False
        for ph, al in zip(phs, aligned):
            if ph >= 0:
                if ph not in al:
                    return t
                live = True
        if not live:
            return t
        self._capts += 1
        self._st.captures += 1
        self._st.cert_captures += 1
        if self._capts > _CAPTURE_BUDGET:
            self._armed = False
            self._st.bump(self._st.stand_downs, "capture-budget")
            return t
        cap = self._capture(t)
        if cap is None:
            if not self._abort_stand_down():
                self._cert_strike()
            return t
        self._abort_streak = 0
        prev = self._seen.get(cap.key)
        if prev is None:
            self._remember(cap)
            self._cert_strike()
            return t
        self._cert_strikes = 0
        nt = self._try_pair(prev, cap, t, eff_limit)
        if nt is not None:
            if nt >= 0:
                self._st.cert_jumps += 1
                return nt
            return t
        # Key hit but no usable pair (cold transient, horizon): keep
        # the newest anchor fresh.  The aligned cadence is sparse — one
        # capture per phase crossing — so no extra backoff is needed.
        self._remember(cap)
        self._st.verify_failures += 1
        return t

    def _cert_strike(self) -> None:
        """An aligned capture that revisited no canonical state.  Enough
        straight strikes mean the certificate is wrong for this run
        (stale geometry, seeded defect, forged fixture): stand down."""
        self._cert_strikes += 1
        if self._cert_strikes >= _CERT_STRIKES:
            self._armed = False
            self._st.bump(self._st.stand_downs, "cert-mismatch")

    # ------------------------------------------------------------------
    # Level 0b: pair-certificate-guided capture (joint lattice residues)
    # ------------------------------------------------------------------

    def _arm_pair_cert(self, cert: Any) -> bool:
        """Gate a staged :class:`~repro.check.compose.PairCertificate`
        against the actual run at arm time.

        Returns ``False`` only for the ``pair-cert-none`` stand-down (a
        stand-down can cost speed, never correctness, so the verdict is
        honored as-is — ``validate()`` and the sweep preflight reject
        forged verdicts statically, mirroring the tiled ``cert-none``
        protocol).  Any structural disagreement — wrong kind, wrong
        thread count, a per-side lattice the traces do not re-derive —
        records ``pair-cert-mismatch`` and returns ``True`` with
        guidance off: dynamic detection absorbs the run byte-identically.
        """
        st = self._st
        if getattr(cert, "kind", None) != "pair" \
                or len(self.core.threads) != 2 \
                or any(type(th.gen) is TiledTrace for th in self.core.threads):
            st.bump(st.stand_downs, "pair-cert-mismatch")
            return True
        if cert.verdict == "none":
            st.bump(st.stand_downs, "pair-cert-none")
            return False
        mains: List[Optional[CompiledTrace]] = []
        for th in self.core.threads:
            gen: Any = th.gen
            if type(gen) is CompiledTrace:
                mains.append(gen)
            elif type(gen) is ChainedSource:
                main: Optional[CompiledTrace] = None
                for part in gen.parts:
                    if type(part) is CompiledTrace:
                        main = part
                mains.append(main)
            else:
                mains.append(None)
        if any(m is None for m in mains):
            st.bump(st.stand_downs, "pair-cert-mismatch")
            return True
        from repro.check.recurrence import certify_stream

        claims = ((cert.period_a, cert.translation_a),
                  (cert.period_b, cert.translation_b))
        for trace, (period, translation) in zip(mains, claims):
            assert trace is not None
            fresh = certify_stream(trace, phase_mod=self._phase_mod,
                                   guard_bytes=self._guard_bytes)
            if fresh.period_pos != period \
                    or fresh.translation != translation:
                st.bump(st.stand_downs, "pair-cert-mismatch")
                return True
        if cert.verdict != "joint-periodic" or cert.joint_period_pos \
                != math.lcm(claims[0][0], claims[1][0]):
            st.bump(st.stand_downs, "pair-cert-mismatch")
            return True
        self._pair_cert_mode = True
        self._pair_periods = (claims[0][0], claims[1][0])
        st.pair_cert_runs += 1
        return True

    def _pair_cert_probe(self, t: int, eff_limit: int) -> int:
        """Capture only when the joint lattice-residue vector revisits
        a previously seen value, skipping signature warmup entirely.

        The certificate proves each thread's canonical source key is a
        function of its position *residue* mod the certified
        ``period_pos``, so the joint state can recur only where the
        residue vector does — a revisit is exactly a statically
        aligned capture pair candidate, proven (or refuted) by the
        same canonical-key equality and ``_try_pair`` proof as dynamic
        detection.  Fresh anchors and transients back the capture
        cadence off exponentially without penalty; a *previously
        captured* joint state whose canonical key changed is a strike,
        and enough straight strikes record ``pair-cert-mismatch`` and
        hand the run to the dynamic detector.
        """
        periods = self._pair_periods
        if periods is None:     # pragma: no cover — pair mode sets it
            return t
        parts: List[int] = []
        sts: List[int] = []
        for th, period in zip(self.core.threads, periods):
            if th.gen_done:
                parts.append(-1)
                sts.append(-1)
                continue
            gen: Any = th.gen
            if type(gen) is ChainedSource:
                at = gen.active_trace()
                if at is None:
                    return t
                part_idx, trace = at
            else:               # CompiledTrace (prepare gated the rest)
                if gen.pos >= gen.count:
                    parts.append(-1)
                    sts.append(-1)
                    continue
                part_idx, trace = 0, gen
            parts.append(part_idx)
            sts.append(trace.pos % period)
        pt = tuple(parts)
        if pt != self._last_parts:
            # Part transition (a warm-up trace draining, its marker
            # retiring): the dynamics changed, so restart the residue
            # history on the new parts.  Anchor keys embed the part
            # index, so stale anchors could never match anyway.
            self._reset_detection(pt, t)
            self._pair_res_seen.clear()
            self._pair_caught.clear()
            self._pair_strikes = 0
            self._pair_next = t
            self._pair_backoff = _PAIR_BACKOFF0
        st_t = tuple(sts)
        if st_t == self._last_phases:
            return t
        self._last_phases = st_t
        if all(s < 0 for s in sts):
            return t
        if st_t not in self._pair_caught:
            res_seen = self._pair_res_seen
            if st_t not in res_seen:
                if len(res_seen) >= _SIG_ENTRIES:
                    res_seen.clear()
                res_seen[st_t] = t
                return t
            # A fresh revisit mints a new anchor only on the backoff
            # cadence: anchors recur once per joint cycle, so a few
            # are plenty and capture cost stays bounded.  Anchored
            # vectors skip the gate — their recurrence IS the moment
            # the key table holds a guaranteed partner.
            if t < self._pair_next:
                return t
        self._capts += 1
        self._st.captures += 1
        self._st.pair_cert_captures += 1
        if self._capts > _CAPTURE_BUDGET:
            self._armed = False
            self._st.bump(self._st.stand_downs, "capture-budget")
            return t
        cap = self._capture(t)
        if cap is None:
            if self._abort_stand_down():
                return t
            # Uncapturable machine state (in-flight drains) says
            # nothing about the lattice: back off without a strike.
            self._pair_defer(t)
            return t
        self._abort_streak = 0
        prev = self._seen.get(cap.key)
        if prev is None:
            self._remember(cap)
            if st_t in self._pair_caught:
                # This joint residue produced a capture before, yet its
                # canonical key changed: the static lattice and the
                # dynamics disagree.  That is what strikes count.
                self._pair_anchor_add(st_t, t)
                self._pair_miss(t)
            else:
                self._pair_anchor_add(st_t, t)
                self._pair_defer(t)
            return t
        self._pair_anchor_add(st_t, t)
        self._pair_strikes = 0
        nt = self._try_pair(prev, cap, t, eff_limit)
        if nt is not None:
            if nt >= 0:
                self._pair_backoff = _PAIR_BACKOFF0
                self._st.pair_cert_jumps += 1
                return nt
            return t
        # Key hit but no usable pair (cold transient, horizon): keep
        # the newest anchor fresh and back the cadence off without a
        # strike — the lattice is right, the orbit just has not
        # settled yet.
        self._remember(cap)
        self._st.verify_failures += 1
        self._pair_defer(t)
        return t

    def _pair_anchor_add(self, st_t: tuple, t: int) -> None:
        """Record a captured joint residue vector as an anchor,
        evicting the stalest one at the bound — a vector wrap that
        re-aligns the threads (a new co-execution epoch) retires old
        anchors naturally this way."""
        caught = self._pair_caught
        if st_t not in caught and len(caught) >= _PAIR_ANCHORS:
            del caught[min(caught, key=caught.__getitem__)]
        caught[st_t] = t

    def _pair_defer(self, t: int) -> None:
        """Back the guided-capture cadence off exponentially without
        charging a strike (anchoring a fresh joint state, an
        uncapturable transient, a not-yet-settled orbit)."""
        self._pair_next = t + self._pair_backoff
        self._pair_backoff = min(self._pair_backoff * 2,
                                 _PAIR_BACKOFF_MAX)

    def _pair_miss(self, t: int) -> None:
        """A previously captured joint state came back with a different
        canonical key: strike; enough straight strikes hand the run to
        dynamic detection."""
        self._pair_strikes += 1
        self._pair_defer(t)
        if self._pair_strikes >= _CERT_STRIKES:
            self._pair_cert_fallback(t)

    def _pair_cert_fallback(self, t: int) -> None:
        """Guided captures never revisited a canonical state: the pair
        certificate is wrong for this run (stale geometry, seeded
        defect, forged fixture).  Fall back to dynamic detection."""
        self._st.bump(self._st.stand_downs, "pair-cert-mismatch")
        self._pair_cert_mode = False
        self._pair_periods = None
        self._pair_res_seen.clear()
        self._pair_caught.clear()
        self._reset_detection(self._last_parts, t)

    # ------------------------------------------------------------------
    # Level 1: cheap per-boundary signature probing
    # ------------------------------------------------------------------

    def _sig(self, t: int) -> Optional[Tuple[tuple, tuple]]:
        """(parts, signature) for this boundary, or None while some
        thread is momentarily unprobeable (a marker part in flight, an
        exhausted trace draining).

        Soundness: the signature is a pure function of fields the full
        canonical key also contains, so canonical-state equality
        implies signature equality — capturing only on signature
        repeats loses no true period.
        """
        core = self.core
        phase_mod = self._phase_mod
        parts = []
        sig = []
        for th in core.threads:
            if th.gen_done:
                parts.append(-1)
                src_m: object = -1
            else:
                gen: Any = th.gen
                tg = type(gen)
                if tg is ChainedSource:
                    at = gen.active_trace()
                    if at is None:
                        return None
                    part_idx, trace = at
                    if trace.pos >= trace.count:
                        return None
                elif tg is CompiledTrace:
                    if gen.pos >= gen.count:
                        return None
                    part_idx, trace = 0, gen
                else:
                    return None
                if trace.is_memory:
                    src_m = (part_idx, trace.pos % trace.pattern_len,
                             trace.offset % phase_mod)
                else:
                    src_m = (part_idx, trace.pos % trace.pattern_len)
                parts.append(part_idx)
            sig.append((_STATE_CODE[th.state], th.gen_done, th.lq_used,
                        th.sq_used, len(th.uopq), len(th.rob),
                        len(th.waiting), src_m))
        return (tuple(parts),
                (tuple(sig), core._rr, core._issue_rr, core._issue_burst,
                 len(core._comp_heap), len(core._drain_q)))

    def _probe(self, t: int) -> int:
        ps = self._sig(t)
        if ps is None:
            return t
        parts, sig = ps
        if parts != self._last_parts:
            self._reset_detection(parts, t)
        if sig == self._sig_last:
            # A stalled pipeline (a divide draining, a full store
            # buffer) freezes the signature across adjacent boundaries;
            # those trivial repeats carry no period information.
            return t
        self._sig_last = sig
        self._probes += 1
        if self._probes > _SIG_BUDGET:
            self._armed = False
            self._st.bump(self._st.stand_downs, "probe-budget")
            return t
        seen = self._sig_seen
        rec = seen.get(sig)
        if rec is None:
            if len(seen) >= _SIG_ENTRIES:
                seen.clear()
            seen[sig] = [t, t, 0]
            return t
        d_last = t - rec[1]
        confirmed = d_last == rec[2]
        rec[2] = d_last
        rec[1] = t
        if self._hint_period and not self._hint_proven:
            # Parallel probing under an unproven candidate: only an
            # *upgrade* may relatch — a recurrence interval strictly
            # longer than the candidate, seen twice in a row from the
            # same signature.  A long-latency stall freezes every
            # cheap field for stretches far shorter than the true
            # canonical period; re-adopting such a junk interval would
            # reset the miss counter and the backoff, while a one-off
            # longer interval is as likely a cold-transient
            # coincidence.  A twice-confirmed longer interval is the
            # true orbit showing through the junk latch.
            d = d_last
            if d <= self._hint_period or d < _SIG_MIN0 \
                    or not confirmed:
                return t
        else:
            d = t - rec[0]
            if d < _SIG_MIN0:
                # Too short to trust — the *first* sighting is kept, so
                # the next recurrence is measured at 2d, 3d, ... until
                # one clears the threshold.
                return t
        # Latch the candidate period and switch to the capture cadence.
        # Sightings are kept: their recurrence intervals stay valid and
        # let a still-longer true period upgrade this latch without
        # waiting out a fresh observation era.
        self._hint_period = d
        self._hint_next = t + d
        self._hint_proven = False
        self._hint_misses = 0
        self._hint_hits = 0
        self._vf_streak = 0
        self._retry_at = 0
        self._key_misses = 0
        self._capts += 1
        self._st.captures += 1
        cap = self._capture(t)
        if cap is not None:
            self._remember(cap)
        return t

    # ------------------------------------------------------------------
    # Level 2: full captures at the candidate-period cadence
    # ------------------------------------------------------------------

    def _remember(self, cap: _Capture) -> None:
        seen = self._seen
        if cap.key not in seen and len(seen) >= _MAX_ENTRIES:
            seen.clear()
        seen[cap.key] = cap

    def _hint_miss(self, t: int) -> int:
        self._hint_misses += 1
        if self._hint_proven:
            if self._hint_misses == _REPROBE_MISSES:
                # Parallel probing is about to resume: stale sightings
                # from the hinted stretch would measure distances
                # across it, not along the fresh orbit.
                self._sig_seen.clear()
                self._sig_last = None
            if self._hint_misses >= 2:
                # A proven orbit whose cadence keeps missing is off
                # phase (wrap/tile-edge stretch).  Captures are the
                # expensive part of a miss: back the cadence off
                # exponentially (capped at 8 periods) and let the
                # parallel cheap probing re-latch the phase instead.
                nxt = t + self._hint_period * (
                    1 << min(self._hint_misses - 1, 3))
                if nxt > self._hint_next:
                    self._hint_next = nxt
            return t
        if (not self._burst_done and self._hint_hits == 0
                and self._key_misses >= _BURST_MISSES):
            # Every capture of this candidate produced a fresh canonical
            # state: its grid never revisits a canonical phase (e.g. a
            # signature-space subharmonic).  Anchor every boundary for
            # ~4 candidate periods — a canonical recurrence inside that
            # span pairs at the exact true period.  One burst per part:
            # either it finds the recurrence or there is none this size.
            self._burst_done = True
            span = 4 * self._hint_period + 16
            room = 2 * (_CAPTURE_BUDGET - self._capts) - 64
            if span > room:
                span = room
            if span > 0:
                self._burst_until = t + span
        elif self._hint_misses > _MISS_GRACE:
            # Past the grace window the candidate has had every chance
            # a sub-period latch needs; keep it (the parallel probing
            # may still upgrade it) but stop paying a capture per
            # period for it.
            nxt = t + self._hint_period * (
                1 << min(self._hint_misses - _MISS_GRACE, 4))
            if nxt > self._hint_next:
                self._hint_next = nxt
        return t

    def _on_hint(self, t: int, eff_limit: int) -> int:
        self._capts += 1
        self._st.captures += 1
        if self._capts > _CAPTURE_BUDGET:
            self._armed = False
            self._st.bump(self._st.stand_downs, "capture-budget")
            return t
        cap = self._capture(t)
        if cap is None:
            if self._abort_stand_down():
                return t
            if t < self._burst_until:
                return t
            return self._hint_miss(t)
        self._abort_streak = 0
        parts = tuple(-1 if s is None else s[0] for s in cap.src)
        if parts != self._last_parts:
            self._reset_detection(parts, t)
            return t
        prev = self._seen.get(cap.key)
        if prev is None:
            self._remember(cap)
            if t < self._burst_until:
                return t
            if not self._part_hit and (
                    self._capts > _APERIODIC_CAPS
                    or (self._capts > 64
                        and t - self._part_t0 > _APERIODIC_TICKS)):
                # Hundreds of captures into this part and not one
                # canonical state has ever been seen twice: the joint
                # dynamics are incommensurate (thread cycle lengths
                # drift phase forever).  Stop paying for captures.
                self._armed = False
                self._st.bump(self._st.stand_downs, "aperiodic")
                return t
            self._key_misses += 1
            return self._hint_miss(t)
        self._hint_misses = 0
        self._key_misses = 0
        self._hint_hits += 1
        self._part_hit = True
        if t < self._retry_at:
            # A verification failed less than one period ago; the whole
            # current period shares whatever transient caused it, so
            # keep the newest anchor fresh but do not spend another
            # attempt.
            self._remember(cap)
            return t
        nt = self._try_pair(prev, cap, t, eff_limit)
        if nt is not None:
            return t if nt < 0 else nt
        # The pair failed: remember the newer capture (its future has
        # at least as much room), hold further attempts for one period
        # — every phase of the current period shares the same
        # transient.
        self._remember(cap)
        # A long cold transient (caches still filling at store-buffer
        # drain rate) can outlast any fixed number of every-period
        # retries; back the retry cadence off exponentially (capped at
        # 8 periods) so the transient is *simulated* — cheap — instead
        # of being captured at every boundary.
        self._vf_streak += 1
        delay = self._hint_period * (1 << min(self._vf_streak - 1, 3))
        if delay < 256:
            # A junk-fine latch (a stalled machine self-matching every
            # few ticks) would otherwise retry — and fail — at capture
            # cost every few boundaries until the upgrade rule replaces
            # it.
            delay = 256
        self._retry_at = t + delay
        if self._retry_at > self._hint_next:
            self._hint_next = self._retry_at
        self._st.verify_failures += 1
        return t

    # ------------------------------------------------------------------
    # Canonical capture
    # ------------------------------------------------------------------

    def _abort(self, reason: str) -> Optional["_Capture"]:
        """Count one rejected capture by reason; always returns None so
        abort sites read ``return self._abort("...")``."""
        self._st.bump(self._st.capture_aborts, reason)
        self._abort_streak += 1
        self._abort_reasons[reason] = self._abort_reasons.get(reason, 0) + 1
        return None

    def _abort_stand_down(self) -> bool:
        """Disarm when captures abort persistently, attributing the
        stand-down to the dominant abort reason.

        A cell that captures thread 0 but aborts on thread 1 every
        period would otherwise pay a full (failed) capture per cadence
        tick for the rest of the run and then report nothing more
        specific than the budget it happened to exhaust."""
        if self._abort_streak < _ABORT_LIMIT:
            return False
        reason = max(self._abort_reasons, key=self._abort_reasons.get)
        self._armed = False
        self._st.bump(self._st.stand_downs, "capture-abort:" + reason)
        return True

    def _capture(self, t: int) -> Optional[_Capture]:
        core = self.core
        threads = core.threads
        src: List[Optional[tuple]] = []
        mem_refs: List[Any] = []
        tiled: List[Any] = []
        rob_index: List[dict] = []
        thr_keys: List[tuple] = []
        thread_counters: List[tuple] = []
        phase_mod = self._phase_mod
        for i, th in enumerate(threads):
            mem_ref: Optional[int] = None   # stream-memory head address
            tt: Any = None          # TiledTrace for tiled threads
            trefs: Any = None       # its per-region reference vector
            if th.gen_done:
                src.append(None)
                src_key: object = -1
            else:
                gen: Any = th.gen
                if type(gen) is ChainedSource:
                    at = gen.active_trace()
                    if at is None:
                        return self._abort("inactive-trace")
                    part_idx, trace = at
                elif type(gen) is CompiledTrace:
                    if gen.pos >= gen.count:
                        return self._abort("inactive-trace")
                    part_idx, trace = 0, gen
                elif type(gen) is TiledTrace:
                    if gen.pos >= gen.count:
                        return self._abort("inactive-trace")
                    part_idx, trace = 0, gen
                else:
                    return self._abort("plain-generator")
                if type(trace) is TiledTrace:
                    tt = trace
                    pos = trace.pos
                    ph = trace.phase_of(pos)
                    pid, trefs = trace.phases[ph]
                    rc = self._res_cache[i]
                    res = rc.get(ph)
                    if res is None:
                        res = tuple(r % phase_mod for r in trefs)
                        rc[ph] = res
                    src_key = (part_idx, pos - trace.starts[ph], pid, res)
                elif trace.is_memory:
                    off = trace.offset
                    mem_ref = trace.base + off
                    src_key = (part_idx, trace.pos % trace.pattern_len,
                               off % phase_mod)
                else:
                    src_key = (part_idx, trace.pos % trace.pattern_len)
                src.append((part_idx, trace.pos, trace))
            mem_refs.append(trefs if tt is not None else mem_ref)
            tiled.append(tt)

            rob = th.rob
            index_of: dict = {}
            for j, u in enumerate(rob):
                index_of[id(u)] = j
            rob_index.append(index_of)
            rob_c = []
            abort = ""
            for u in rob:
                if u.effect is not None:
                    abort = "effectful-op"
                    break
                a = u.addr
                if a is None:
                    rel = None
                elif tt is not None:
                    ri = tt.region_of(a)
                    if ri < 0:
                        abort = "unmapped-addr"
                        break
                    rel = (ri, a - trefs[ri])
                elif mem_ref is None:
                    abort = "unmapped-addr"
                    break
                else:
                    rel = a - mem_ref
                deps = u.deps
                if deps:
                    dl = []
                    for d in deps:
                        if d.completed:
                            dl.append(-1)
                        else:
                            dj = index_of.get(id(d))
                            if dj is None:
                                abort = "off-rob-dep"
                                break
                            dl.append(dj)
                    if abort:
                        break
                    deps_c: tuple = tuple(dl)
                else:
                    deps_c = ()
                rob_c.append((int(u.op), u.dst, u.srcs, rel, u.site,
                              u.issued, u.completed, deps_c))
            if abort:
                return self._abort(abort)
            uopq_c = []
            for u in th.uopq:
                if u.effect is not None:
                    return self._abort("effectful-op")
                a = u.addr
                if a is None:
                    rel = None
                elif tt is not None:
                    ri = tt.region_of(a)
                    if ri < 0:
                        return self._abort("unmapped-addr")
                    rel = (ri, a - trefs[ri])
                elif mem_ref is None:
                    return self._abort("unmapped-addr")
                else:
                    rel = a - mem_ref
                uopq_c.append((int(u.op), u.dst, u.srcs, rel, u.site))
            waiting_c = []
            for u in th.waiting:
                j2 = index_of.get(id(u))
                if j2 is None:
                    return self._abort("off-rob-dep")
                waiting_c.append(j2)
            regmap_c = []
            for reg in sorted(th.regmap):
                p = th.regmap[reg]
                if not p.completed:
                    j2 = index_of.get(id(p))
                    if j2 is None:
                        return self._abort("off-rob-dep")
                    regmap_c.append((reg, j2))
            gate = th.fetch_gate_until
            if gate >= _FAR_FUTURE:
                rel_gate = -1          # halt gate sentinel
            else:
                rel_gate = gate - t
                if rel_gate < 0:
                    rel_gate = 0       # expired gates are all equivalent
            wake = th.wake_at
            if wake >= _FAR_FUTURE:
                rel_wake = -1
            else:
                rel_wake = wake - t
                if rel_wake < 0:
                    rel_wake = 0
            thr_keys.append((
                _STATE_CODE[th.state], th.gen_done, th.halt_inflight,
                th.wake_pending, th.lq_used, th.sq_used, rel_gate,
                rel_wake, src_key, tuple(uopq_c), tuple(rob_c),
                tuple(waiting_c), tuple(regmap_c),
            ))
            thread_counters.append((th.seq_next, th.uops_fetched,
                                    th.uops_retired, th.instrs_emitted))

        heap_c = []
        for c, _g, u in sorted(core._comp_heap):
            tid = u.thread
            j = rob_index[tid].get(id(u)) if 0 <= tid < len(rob_index) else None
            if j is None:
                return self._abort("off-rob-dep")
            heap_c.append((c - t, tid, j))
        drain_c = []
        for u in core._drain_q:
            tid = u.thread
            a = u.addr
            tt = tiled[tid]
            if a is None:
                return self._abort("unmapped-addr")
            if tt is not None:
                ri = tt.region_of(a)
                if ri < 0:
                    return self._abort("unmapped-addr")
                rel = (ri, a - mem_refs[tid][ri])
            else:
                ref = mem_refs[tid]
                if ref is None:
                    return self._abort("unmapped-addr")
                rel = a - ref
            drain_c.append((tid, int(u.op), rel, u.site))
        sqrel_c = tuple(tuple(x - t for x in rel)
                        for rel in core._sq_release)
        scf = core._store_commit_free - t
        if scf < 0:
            scf = 0
        maxi = self._max_interval
        unit_map = core.units.units
        units_c = []
        for name in UNIT_NAMES:
            un = unit_map[name]
            rel_free = un.next_free - t
            if rel_free <= -maxi:
                rel_free = -maxi       # inert: older than any predicate
            units_c.append((un.last_tid, rel_free))
        hier = core.hierarchy
        bus = hier._bus_free - t
        if bus < 0:
            bus = 0
        l2f = hier._l2_free - t
        if l2f < 0:
            l2f = 0

        key = (
            tuple(thr_keys), tuple(heap_c), tuple(drain_c), sqrel_c,
            scf, tuple(units_c), bus, l2f,
            core._rr, core._issue_rr, core._issue_burst,
        )
        mem_raw = (
            tuple(tuple(s.items()) for s in hier.l1._sets),
            tuple(tuple(s.items()) for s in hier.l2._sets),
            tuple(sorted((line, r - t)
                         for line, r in hier._pf_pending.items() if r > t)),
            tuple(sorted(hier._pf_tag)),
            tuple(tuple(od) for od in hier.prefetcher._streams),
        )
        counters = tuple(tuple(row) for row in core.monitor.raw)
        unit_counts = tuple(core.units.issue_counts[n] for n in UNIT_NAMES)
        acct = core._acct.period_snapshot() if core._acct is not None else None
        return _Capture(t, key, tuple(src), tuple(mem_refs), counters,
                        unit_counts, thread_counters, core._gseq, acct,
                        mem_raw)

    # ------------------------------------------------------------------
    # Match -> plan -> jump
    # ------------------------------------------------------------------

    def _try_pair(self, prev: _Capture, cap: _Capture, t: int,
                  eff_limit: int) -> Optional[int]:
        """Attempt a jump from the (prev, cap) anchor pair.

        Returns the landing tick on success, ``None`` if this pair is
        unusable, or ``-1`` if the attempt consumed the boundary
        another way (wrap sleep, horizon stand-down) — only a pair at
        the cadence's own period may do that.
        """
        core = self.core
        n = len(core.threads)
        period = cap.tick - prev.tick
        if period <= 0:
            return None

        dps = [0] * n
        dls = [0] * n
        dbs = [0] * n
        tinfo: list = [None] * n
        for i in range(n):
            s1, s2 = prev.src[i], cap.src[i]
            if s1 is None or s2 is None:
                if s1 is not s2:
                    return None
                continue
            trace = s2[2]
            if s1[2] is not trace:
                return None
            dp = s2[1] - s1[1]
            if dp < 0:
                return None
            dps[i] = dp
            if type(trace) is TiledTrace:
                if dp == 0:
                    continue        # same position: identity thread
                ph1 = trace.phase_of(s1[1])
                ph2 = trace.phase_of(s2[1])
                dphase = ph2 - ph1
                if dphase <= 0:
                    return None
                refs1 = prev.mem_refs[i]
                refs2 = cap.mem_refs[i]
                deltas = tuple(b - a for a, b in zip(refs1, refs2))
                neg = False
                for d in deltas:
                    if d < 0:
                        neg = True
                        break
                if neg:
                    # A reference walked backwards (a tile row reset):
                    # not extrapolable.
                    return None
                # Forward edges of one recurrence window, per region:
                # the span [floor, head] the walk touches during phases
                # [ph2, ph2+dphase).  Bounds the stationary-residue
                # guard below (lines under the floor are never
                # revisited — references only move forward; lines over
                # the head need the walk to advance to them).
                nreg = len(deltas)
                edges: list = [None] * nreg
                phases = trace.phases
                extents = trace.extents
                nph = len(phases)
                for j in range(dphase):
                    pj = ph2 + j
                    if pj >= nph:
                        break
                    pidj, refsj = phases[pj]
                    extj = extents[pidj]
                    for r in range(nreg):
                        e = extj[r]
                        if e is None:
                            continue
                        lo_e = refsj[r] + e[0]
                        hi_e = refsj[r] + e[1]
                        cur = edges[r]
                        if cur is None:
                            edges[r] = (lo_e, hi_e)
                        else:
                            edges[r] = (min(cur[0], lo_e),
                                        max(cur[1], hi_e))
                tinfo[i] = (ph1, ph2, dphase, deltas, edges)
            elif trace.is_memory:
                span = trace.span
                off1 = prev.mem_refs[i] - trace.base
                off2 = cap.mem_refs[i] - trace.base
                db_raw = dp * trace.stride
                if db_raw % span == 0:
                    # Whole passes: identity translation.  Sound for any
                    # residue (it is plain state recurrence — wrap
                    # episodes and all — no symmetry argument needed).
                    if off2 != off1:
                        return None
                elif (off2 - off1 == db_raw
                      and span % self._phase_mod == 0):
                    # Monotone sliding translation: the head advanced
                    # exactly the period's stride *without* crossing the
                    # region's top edge, so every per-period delta the
                    # interval recorded is wrap-free and extrapolates by
                    # pure line shift.  The shift is set-preserving in
                    # both caches because the region spans a whole
                    # number of sets (span divides the phase modulus).
                    # An interval that crossed the wrap (off2 < off1)
                    # contains the wrap episode's prefetch-relearn
                    # deltas, which no non-wrap future repeats — only
                    # the whole-pass identity branch above may span it.
                    dls[i] = db_raw // self._line_size
                    dbs[i] = db_raw
                else:
                    return None

        windows = self._windows(cap, dls, tinfo, 1)
        if windows is None:
            return None     # two threads disagree on a region's shift
        if windows:
            plan = self._mem_equal(prev, cap, windows)
            if plan is None:
                return None
        else:
            if prev.mem_raw != cap.mem_raw:
                return None
            plan = (set(), set(), set(), set(), set())

        # -- how many whole periods fit ---------------------------------
        # Only a pair at the cadence's own (finest) period may consume
        # the boundary with a sleep or a stand-down: an inflated period
        # proves nothing about whether one *fine* period still fits.
        decisive = period <= self._hint_period
        k = (eff_limit - t) // period
        if k < 1:
            if not decisive:
                return None
            self._armed = False        # time bound only shrinks: done
            self._st.bump(self._st.stand_downs, "horizon")
            return -1
        limit_sleep = 0
        fine = (self._hint_period
                if 0 < self._hint_period < period else period)
        for i in range(n):
            s = cap.src[i]
            dp = dps[i]
            if s is None or dp == 0:
                continue
            trace = s[2]
            kt = (trace.count - s[1]) // dp
            if kt < k:
                # A finite trace is nearly exhausted: sleep until it
                # ends; the part transition (or run end) then restarts
                # detection on the next dynamics.
                k = kt
                limit_sleep = (kt + 2) * period
            ti = tinfo[i]
            if ti is not None:
                if k >= 1:
                    ke, brk = trace.extrapolation_limit_with_break(
                        ti[0], ti[1], ti[3], k, self._guard_bytes)
                    if ke < k:
                        # The recorded schedule stops repeating with
                        # this shift (tile-row edge, pattern change,
                        # mm's circular-B top chunk tripping the
                        # guard): splice — jump/step up to the break,
                        # sleep across it, and let the cadence pick
                        # the next episode up.  A known break phase
                        # prices the sleep exactly (the guarded chunk
                        # crossed in one episode instead of repeated
                        # two-period nibbles); an exhausted scan keeps
                        # the conservative nibble.
                        k = ke
                        if brk >= 0:
                            limit_sleep = ((brk - ti[1] + ti[2])
                                           * period // ti[2] + 2 * fine)
                        else:
                            limit_sleep = (ke + 2) * period
            elif dbs[i] > 0:
                off = cap.mem_refs[i] - trace.base
                room = trace.span - self._guard_bytes - off
                km = room // dbs[i] if room > 0 else 0
                if km < k:
                    # The walk is about to reach the region's top edge,
                    # where absolute-line prefetch overshoot breaks the
                    # translation symmetry.  Sleep past the edge zone,
                    # then re-listen — the hint cadence picks the orbit
                    # back up just after the wrap, and circular
                    # translation verifies across it.
                    k = km
                    limit_sleep = ((trace.span - off) * period // dbs[i]
                                   + 2 * fine)
        if k < 1:
            if not decisive:
                return None
            self._sleep_until = t + limit_sleep
            self._st.wrap_sleeps += 1
            return -1

        # Stationary residue is inert only while every walk stays clear
        # of it.  Streams leave only the span behind their ascending
        # head (never revisited before the wrap, which bounds k
        # already); tiled walks leave the span below the recurrence
        # window's floor (references only move forward).  Anything
        # ahead needs the walk to advance to it: cap k so no moving
        # window crosses a stationary line during the jump.
        stat_lines = []
        for ss in plan[:4]:
            stat_lines.extend(sorted(ss))
        stat_lines.extend(sorted(line for _cpu, line in plan[4]))
        if stat_lines:
            guard_l = self._guard_bytes // self._line_size
            for x in stat_lines:
                for lo, hi, dl, head, floor in windows:
                    if dl > 0 and lo <= x <= hi:
                        if x >= floor:
                            kx = (x - head - guard_l) // dl
                            if kx < k:
                                k = kx
                        break
            if k < 1:
                return None

        # ``_windows`` rejects independently of k (per-region deltas all
        # scale by k), and ``windows`` was non-None above, so the ``or``
        # arm never fires — it only narrows the Optional for the checker.
        windows_k = ((self._windows(cap, dls, tinfo, k) or [])
                     if windows else [])

        # Wrap splice: when the jump lands within one period (plus the
        # prefetch guard) of a stream region's top edge, the wrap
        # episode — where absolute-line prefetch overshoot breaks the
        # translation symmetry — is next.  Rather than burning a full
        # capture per period through it, splice it into the schedule:
        # sleep exactly the episode out at the proven cadence and
        # capture again on the far side, where the orbit re-proves in
        # two periods.
        splice = 0
        for i in range(n):
            s = cap.src[i]
            if s is None or tinfo[i] is not None or dbs[i] <= 0:
                continue
            trace = s[2]
            off_land = (cap.mem_refs[i] - trace.base) + dbs[i] * k
            if off_land + dbs[i] + self._guard_bytes > trace.span:
                # Episode length in *ticks*: time to the top edge at the
                # walk's byte rate, plus two fine periods of relearn
                # margin.  A pair formed at a period multiple must not
                # quantize the sleep in its own coarse units — that
                # doubles the simulated window for nothing.
                need = ((trace.span - off_land) * period // dbs[i]
                        + 2 * fine)
                if need > splice:
                    splice = need

        self._apply(prev, cap, k, period, dps, dls, tinfo, windows_k,
                    plan)
        self._vf_streak = 0
        self._capts = 0
        self._burst_until = 0
        # Keep the pre-jump capture as its key's anchor.  Inflated pairs
        # it forms with post-landing captures are sound (their
        # per-period deltas scale with the period) and the horizon /
        # wrap decisions above defer to the cadence's own period.
        self._remember(cap)
        if not self._hint_proven and (
                self._hint_hits <= 1
                or period % self._hint_period != 0):
            # First proof, and the latched candidate was junk: its keys
            # never hit (beyond this very pair), or the proof distance
            # is not even a multiple of it.  The pairing period is the
            # real cadence.
            self._hint_period = period
        elif period < self._hint_period:
            self._hint_period = period
        # else: the latched period is canonically confirmed (its keys
        # hit; the pair formed at a multiple only because backoff or a
        # transient skipped intermediate attempts) or the pair spans a
        # whole pass; keep the finer cadence — finer pairs give larger
        # wrap head-room per jump.
        self._hint_proven = True
        self._hint_next = t + k * period + splice
        self._hint_misses = 0
        if splice:
            self._sleep_until = t + k * period + splice
            self._st.wrap_sleeps += 1
        return t + k * period

    def _windows(self, cap: _Capture, dls: Sequence[int],
                 tinfo: Sequence[Any], k: int) -> Optional[List[tuple]]:
        """Per-region line windows ``(lo, hi, dl, head, floor)``.

        All windows translate linearly by ``k x`` their per-period line
        delta.  Stream regions anchor at the walk head's line
        (``floor`` = just under it — the sliding state lives at and
        ahead of the head, everything behind is stationary residue);
        tiled regions anchor at the recurrence window's touch edges
        (``head``/``floor``).  Returns ``None`` when
        two threads demand different shifts for the same region —
        no single translation can satisfy both, so the pair is
        unusable.  A region a tiled pair leaves in place (delta 0)
        gets no window: its lines must verify as identity/stationary.
        """
        ls = self._line_size
        out: dict = {}
        for i, s in enumerate(cap.src):
            if s is None:
                continue
            trace = s[2]
            ti = tinfo[i]
            if ti is not None:
                deltas = ti[3]
                edges = ti[4]
                for r, d in enumerate(deltas):
                    if d == 0:
                        continue
                    reg = trace.regions[r]
                    lo = reg.base // ls
                    hi = (reg.end - 1) // ls
                    dl = (d // ls) * k
                    e = edges[r]
                    if e is None:
                        # Delta without a touch inside the recurrence
                        # window (schedule truncated): treat the whole
                        # region as the window — maximally conservative
                        # for the stationary guard.
                        floor, head = lo, hi
                    else:
                        floor = e[0] // ls
                        head = e[1] // ls
                    w = out.get(lo)
                    if w is not None:
                        if w[1] != hi or w[2] != dl:
                            return None
                        if head > w[3]:
                            w[3] = head
                        if floor < w[4]:
                            w[4] = floor
                    else:
                        out[lo] = [lo, hi, dl, head, floor]
            elif trace.is_memory:
                lo = trace.base // ls
                hi = (trace.base + trace.span - 1) // ls
                dl = dls[i] * k
                head = cap.mem_refs[i] // ls
                w = out.get(lo)
                if w is not None:
                    if w[1] != hi or w[2] != dl:
                        return None
                    if head > w[3]:
                        w[3] = head
                    if head - 2 < w[4]:
                        w[4] = head - 2
                else:
                    out[lo] = [lo, hi, dl, head, head - 2]
        return [tuple(w) for w in out.values()]

    @staticmethod
    def _xl(line: int, windows: Sequence[tuple]) -> int:
        """Line translation.  Windows shift monotonically — an image
        past the region's top returns the ``-1`` sentinel, which
        matches no real line, so verification falls through to the
        stationary test.  Lines outside every window are identity."""
        for lo, hi, dl, _head, _floor in windows:
            if lo <= line <= hi:
                nl = line + dl
                return nl if nl <= hi else -1
        return line

    def _mem_equal(self, prev: _Capture, cap: _Capture,
                   windows: Sequence[tuple]) -> Optional[tuple]:
        """Element-wise raw verification under the line translation.

        Cache sets compare in insertion (= LRU) order and prefetch
        stream heads in recency order — both orders are semantic and
        translation-invariant, so the pairing is positional.
        Prefetch-pending entries and tags are unordered collections:
        the shift (or a mixed stationary/sliding shift) reorders their
        sorted snapshots, so they are matched as multisets.  Each
        element either *slides* (its translated image matches) or is
        *stationary* (it matches untranslated — inert residue such as
        an orphaned prefetch tag whose line left L2, or a dead stream
        head the LRU table never displaced).  Anything else fails.

        Returns ``None`` on mismatch, else the stationary plan — one
        line set per structure (streams keyed by (cpu, line)).  The
        caller must keep the jump's walk span clear of every stationary
        line (they are inert only while untouched) and apply/identity-
        translate them accordingly."""
        xl = self._xl
        p_l1, p_l2, p_pend, p_tag, p_streams = prev.mem_raw
        c_l1, c_l2, c_pend, c_tag, c_streams = cap.mem_raw
        stat_l1: set = set()
        stat_l2: set = set()
        for p_sets, c_sets, stat in ((p_l1, c_l1, stat_l1),
                                     (p_l2, c_l2, stat_l2)):
            for si, (pset, cset) in enumerate(zip(p_sets, c_sets)):
                if len(pset) != len(cset):
                    return None
                for (pl, pd), (cl, cd) in zip(pset, cset):
                    if pd != cd:
                        return None
                    if xl(pl, windows) == cl:
                        continue
                    if pl == cl:
                        stat.add(pl)
                        continue
                    return None
        if len(p_pend) != len(c_pend):
            return None
        stat_pend: set = set()
        c_map = dict(c_pend)
        for pl, prel in p_pend:
            nl = xl(pl, windows)
            if c_map.get(nl) == prel:
                del c_map[nl]
                continue
            if c_map.get(pl) == prel:
                del c_map[pl]
                stat_pend.add(pl)
                continue
            return None
        if len(p_tag) != len(c_tag):
            return None
        stat_tag: set = set()
        c_left = set(c_tag)
        for pl in p_tag:
            nl = xl(pl, windows)
            if nl in c_left:
                c_left.discard(nl)
                continue
            if pl in c_left:
                c_left.discard(pl)
                stat_tag.add(pl)
                continue
            return None
        stat_streams: set = set()
        for cpu, (p_heads, c_heads) in enumerate(zip(p_streams, c_streams)):
            if len(p_heads) != len(c_heads):
                return None
            for pl, cl in zip(p_heads, c_heads):
                if xl(pl, windows) == cl:
                    continue
                if pl == cl:
                    stat_streams.add((cpu, pl))
                    continue
                return None
        return stat_l1, stat_l2, stat_pend, stat_tag, stat_streams

    # ------------------------------------------------------------------
    # The jump itself
    # ------------------------------------------------------------------

    def _apply(self, prev: _Capture, cap: _Capture, k: int, period: int,
               dps: Sequence[int], dls: Sequence[int],
               tinfo: Sequence[Any], windows_k: Sequence[tuple],
               plan: tuple) -> None:
        global _last_jump
        _last_jump = {"period": period, "k": k, "dps": list(dps)}
        core = self.core
        t = cap.tick
        dt = k * period
        threads = core.threads
        maxi = self._max_interval

        # Instruction sources: O(1) cursor skip per thread.
        for i, s in enumerate(cap.src):
            if s is not None and dps[i]:
                s[2].skip(k * dps[i])

        # Per-thread tick fields, monotone counters, in-flight µops.
        for i, th in enumerate(threads):
            gate = th.fetch_gate_until
            if gate > t and gate < _FAR_FUTURE:
                th.fetch_gate_until = gate + dt
            if th.wake_at < _FAR_FUTURE:
                th.wake_at += dt
            tc1 = prev.thread_counters[i]
            tc2 = cap.thread_counters[i]
            dseq = (tc2[0] - tc1[0]) * k
            th.seq_next += dseq
            th.uops_fetched += (tc2[1] - tc1[1]) * k
            th.uops_retired += (tc2[2] - tc1[2]) * k
            th.instrs_emitted += (tc2[3] - tc1[3]) * k
            ti = tinfo[i]
            if ti is not None:
                # Tiled in-flight addresses advance by their region's
                # k-period reference delta (capture proved every one
                # mapped, so region_of cannot miss).
                dmap = [d * k for d in ti[3]]
                moving = any(dmap)
                if moving or dseq:
                    region_of = cap.src[i][2].region_of
                    for u in th.uopq:
                        a = u.addr
                        if moving and a is not None:
                            u.addr = a + dmap[region_of(a)]
                        u.seq += dseq
                    for u in th.rob:
                        a = u.addr
                        if moving and a is not None:
                            u.addr = a + dmap[region_of(a)]
                        u.seq += dseq
                continue
            shift = dls[i] != 0
            if shift or dseq:
                if shift:
                    # In-flight addresses advance in trace-position
                    # space: off = (pos % wrap_len)·stride, so the
                    # k-period image wraps exactly where the walk does.
                    trace = cap.src[i][2]
                    base = trace.base
                    stride = trace.stride
                    wrap = trace.wrap_len
                    dpos = dps[i] * k
                for u in th.uopq:
                    if shift and u.addr is not None:
                        u.addr = base + ((u.addr - base) // stride
                                         + dpos) % wrap * stride
                    u.seq += dseq
                for u in th.rob:
                    if shift and u.addr is not None:
                        u.addr = base + ((u.addr - base) // stride
                                         + dpos) % wrap * stride
                    u.seq += dseq
        for u in core._drain_q:
            tid = u.thread
            a = u.addr
            if a is None:       # drain entries are stores: never None
                continue
            ti = tinfo[tid]
            if ti is not None:
                trace = cap.src[tid][2]
                d = ti[3][trace.region_of(a)] * k
                if d:
                    u.addr = a + d
            elif dls[tid]:
                trace = cap.src[tid][2]
                u.addr = (trace.base
                          + ((a - trace.base) // trace.stride
                             + dps[tid] * k) % trace.wrap_len
                          * trace.stride)

        # Core-global tick fields.  A uniform +dt keeps every relation
        # to "now" intact; provably inert (stale) values stay put, which
        # is exactly what the true run holds at the landing tick.
        core._gseq += (cap.gseq - prev.gseq) * k
        heap = core._comp_heap
        for j in range(len(heap)):
            c, g, u = heap[j]
            heap[j] = (c + dt, g, u)
        if core._store_commit_free > t:
            core._store_commit_free += dt
        for rel in core._sq_release:
            if rel:
                shifted = [x + dt for x in rel]
                rel.clear()
                rel.extend(shifted)
        unit_map = core.units.units
        for name in UNIT_NAMES:
            un = unit_map[name]
            if un.next_free - t > -maxi:
                un.next_free += dt
        hier = core.hierarchy
        if hier._bus_free > t:
            hier._bus_free += dt
        if hier._l2_free > t:
            hier._l2_free += dt

        # Memory translation by k·ΔL per region (set-preserving; the
        # monotone shifts are schedule/guard-bounded in-region;
        # stationary residue keeps its lines).
        if windows_k:
            xl = self._xl
            stat_l1, stat_l2, stat_pend, stat_tag, stat_streams = plan
            for cache, stat in ((hier.l1, stat_l1), (hier.l2, stat_l2)):
                for s in cache._sets:
                    if s:
                        items = [(line if line in stat
                                  else xl(line, windows_k), d)
                                 for line, d in s.items()]
                        s.clear()
                        for line, d in items:
                            s[line] = d
            if hier._pf_pending:
                items = [(line, r) for line, r in hier._pf_pending.items()
                         if r > t]
                hier._pf_pending.clear()
                for line, r in items:
                    nl = line if line in stat_pend else xl(line, windows_k)
                    hier._pf_pending[nl] = r + dt
            if hier._pf_tag:
                tags = [line if line in stat_tag else xl(line, windows_k)
                        for line in sorted(hier._pf_tag)]
                hier._pf_tag.clear()
                hier._pf_tag.update(tags)
            for cpu, od in enumerate(hier.prefetcher._streams):
                if od:
                    heads = [line if (cpu, line) in stat_streams
                             else xl(line, windows_k) for line in od]
                    od.clear()
                    for line in heads:
                        od[line] = None
        elif hier._pf_pending:
            # No translation, but pending prefetch timestamps still move.
            items = [(line, r) for line, r in hier._pf_pending.items()
                     if r > t]
            hier._pf_pending.clear()
            for line, r in items:
                hier._pf_pending[line] = r + dt

        # Monotone counters: extrapolate the period's exact deltas.
        raw = core.monitor.raw
        for e in range(len(raw)):
            row = raw[e]
            p_row = prev.counters[e]
            c_row = cap.counters[e]
            for cpu in range(len(row)):
                d = c_row[cpu] - p_row[cpu]
                if d:
                    row[cpu] += d * k
        issue_counts = core.units.issue_counts
        for idx, name in enumerate(UNIT_NAMES):
            d = cap.unit_counts[idx] - prev.unit_counts[idx]
            if d:
                issue_counts[name] += d * k
        if core._acct is not None:
            core._acct.on_period(core, prev.acct, k)

        self.jumps += 1
        self.ticks_skipped += dt
        self._st.jumps += 1
        self._st.ticks_skipped += dt
