"""Differential equivalence harness for fig2 co-execution pairs.

The hierarchical fast-forward (super-period pairing + tile-level
recurrence) must be invisible in every observable: with fastpath on,
every ``CoreResult`` field, every PerfMonitor counter, and every
CycleAccountant ledger is byte-identical to the fully stepped run.
This suite draws random legal pairs from the fig2 generator space
(panels a/b/c plus self-pairs) and proves the contract over the real
measurement harness (``run_pair_cpis``) and over raw Program runs in
both stopping modes (stop-on-first-done and run-to-completion).

Seeds are pinned per CI leg via ``FASTPATH_EQUIV_SEED`` so the three
CI matrix entries explore disjoint example streams deterministically.
"""

import os

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.common.errors import ConfigError
from repro.core.coexec import (
    FIG2A_STREAMS,
    FIG2B_STREAMS,
    FIG2C_PAIRS,
    run_pair_cpis,
)
from repro.isa.streams import ILP, StreamSpec
from repro.isa.trace import compile_stream
from repro.observe import CycleAccountant
from repro.runtime.program import Program

_SEED = int(os.environ.get("FASTPATH_EQUIV_SEED", "0"))

#: The fig2 generator space: every pair the figure can ask for.
_FIG2_PAIRS = sorted(set(
    [(a, b) for i, a in enumerate(FIG2A_STREAMS) for b in FIG2A_STREAMS[i:]]
    + [(a, b) for i, a in enumerate(FIG2B_STREAMS) for b in FIG2B_STREAMS[i:]]
    + list(FIG2C_PAIRS)
))

_ENDLESS = 1 << 30

_COMMON = dict(deadline=None,
               suppress_health_check=[HealthCheck.too_slow])


def _run_raw(pair, ilp, fastpath, counts=None, **run_kw):
    acct = CycleAccountant()
    prog = Program(accountant=acct, fastpath=fastpath)
    for i, name in enumerate(pair):
        count = counts[i] if counts is not None else _ENDLESS
        spec = StreamSpec(name, ilp=ilp, count=count)
        region = None
        if spec.is_memory:
            region = prog.aspace.alloc(f"v{i}", 4096, elem_size=1)
        trace = compile_stream(spec, region)
        prog.add_thread(lambda api, tr=trace: tr)
    result = prog.run(**run_kw)
    return {
        "ticks": result.ticks,
        "instrs": result.instrs,
        "retired": result.retired,
        "done_ticks": result.done_ticks,
        "units": dict(result.unit_issue_counts),
        "monitor": [list(row) for row in result.monitor.raw],
        "acct": acct.to_dict(),
    }


# -- the real fig2 measurement harness --------------------------------------

def _pair_outcome(pair, horizon, fastpath):
    """The CPIs of one run_pair_cpis arm, or its (type, message) when it
    raises the designed ConfigError: a horizon too short for a slow
    pair to reach steady state is an outcome both arms must share."""
    try:
        return run_pair_cpis(pair[0], pair[1], ILP.MAX,
                             horizon_ticks=horizon, fastpath=fastpath)
    except ConfigError as e:
        return type(e), str(e)


@seed(_SEED)
@settings(max_examples=8, **_COMMON)
@given(
    pair=st.sampled_from(_FIG2_PAIRS),
    horizon=st.integers(15_000, 60_000).map(lambda t: t * 2),
)
def test_fig2_pair_cpis_identical(pair, horizon):
    """run_pair_cpis — marker warm-up, endless streams, tick horizon."""
    off = _pair_outcome(pair, horizon, fastpath=False)
    on = _pair_outcome(pair, horizon, fastpath=True)
    assert off == on


def test_fig2_pair_short_horizon_error_identical():
    """fstore+fstore never reaches steady state in 30,000 ticks: both
    arms raise the same ConfigError, with or without the fast-forward."""
    off = _pair_outcome(("fstore", "fstore"), 30_000, fastpath=False)
    on = _pair_outcome(("fstore", "fstore"), 30_000, fastpath=True)
    assert off == on
    assert off[0] is ConfigError
    assert "did not reach steady state" in off[1]


# -- raw runs: full CoreResult + monitor + accountant ------------------------

@seed(_SEED)
@settings(max_examples=8, **_COMMON)
@given(
    pair=st.sampled_from(_FIG2_PAIRS),
    ilp=st.sampled_from(list(ILP)),
    horizon=st.integers(4_000, 20_000).map(lambda t: t * 2),
)
def test_fig2_pair_full_state_identical(pair, ilp, horizon):
    off = _run_raw(pair, ilp, False, stop_at_tick=horizon)
    on = _run_raw(pair, ilp, True, stop_at_tick=horizon)
    assert off == on


@seed(_SEED)
@settings(max_examples=6, **_COMMON)
@given(
    pair=st.sampled_from(_FIG2_PAIRS),
    counts=st.tuples(st.integers(400, 5_000), st.integers(400, 5_000)),
)
def test_fig2_pair_run_to_completion_identical(pair, counts):
    off = _run_raw(pair, ILP.MAX, False, counts=list(counts))
    on = _run_raw(pair, ILP.MAX, True, counts=list(counts))
    assert off == on


@seed(_SEED)
@settings(max_examples=6, **_COMMON)
@given(
    pair=st.sampled_from(_FIG2_PAIRS),
    counts=st.tuples(st.integers(400, 3_000), st.integers(4_000, 10_000)),
    ilp=st.sampled_from(list(ILP)),
)
def test_fig2_pair_stop_on_first_done_identical(pair, counts, ilp):
    off = _run_raw(pair, ilp, False, counts=list(counts),
                   stop_on_first_done=True)
    on = _run_raw(pair, ilp, True, counts=list(counts),
                  stop_on_first_done=True)
    assert off == on


# -- the super-period detector must actually engage --------------------------

def test_pair_jump_engages_on_arith_pair():
    """(fadd, fmul) locks into a joint super-period and fast-forwards."""
    import repro.cpu.fastpath as fp

    fp.reset_stats()
    run_pair_cpis("fadd", "fmul", ILP.MAX, fastpath=True)
    st_ = fp.stats()
    assert st_.jumps >= 1
    assert st_.ticks_skipped > 0


# -- accelerated cells stay inside their provable static intervals -----------

#: The benchmark's headline subset plus the memory pairs: every cell
#: the fast-forward accelerates (or refuses) in BENCH_core.json.
_HEADLINE = (("fadd", "fmul"), ("fmul", "fmul"), ("iadd", "imul"),
             ("iadd", "iadd"), ("idiv", "fdiv"),
             ("fload", "iload"), ("fstore", "istore"))


def test_accelerated_pairs_stay_inside_model_intervals():
    """Fast-forwarded CPIs must still satisfy the repro.model oracle:
    each side inside its provable dual-stream interval, and the joint
    unit-utilization law intact."""
    import repro.cpu.fastpath as fp
    from repro.check.findings import Severity
    from repro.model.oracle import validate_cells
    from repro.sweep.cells import pair_cell

    jumped = 0
    for a, b in _HEADLINE:
        fp.reset_stats()
        cpis = run_pair_cpis(a, b, ILP.MAX, fastpath=True)
        jumped += fp.stats().jumps > 0
        findings = validate_cells([pair_cell(a, b, ILP.MAX)], [cpis])
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert not errors, "\n".join(str(f) for f in errors)
    assert jumped >= 5, "most headline cells should fast-forward"
