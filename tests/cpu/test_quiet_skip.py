"""The quiet-tick skip gives every skipped tick what stepping gives it.

``SMTCore._quiet_advance`` (``cpu/core.py``, "Time advance") moves the
clock over ticks where no stage can change anything but per-boundary
counters.  Each case below runs twice: as written, and with the quiet
check patched to never skip, so that every such tick is stepped.  The
two runs must agree on the tick count, the retired µops, the unit issue
counts, the digest of every performance counter, the accountant's
breakdown where one is attached, the measured CPIs, and every
fast-forward counter (jumps, captures, skipped ticks, stand-downs).

The stepped-pass counts (``_issue`` calls) of both runs are pinned as
well.  Counts, unlike wall time, do not depend on the host, so a change
that steps ticks the skip used to cross fails here.
"""

import pytest

from repro.core.coexec import run_pair_cpis
from repro.core.streams import measure_stream_cpi
from repro.cpu import SMTCore
from repro.cpu import fastpath as _fastpath
from repro.isa.streams import ILP
from tests.cpu.test_issue_exact import (
    CASES as EXACT_CASES, _accounted, _digest, _fingerprint)


def _with_accountant():
    result, acct = _accounted()
    return _fingerprint(result) + (_digest(acct.to_dict()),)


def _recorded(measure):
    """Run ``measure``; return what it measured and the fingerprint of
    every core run it made."""
    results = []
    run = SMTCore.run

    def recording(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        results.append(_fingerprint(result))
        return result

    SMTCore.run = recording
    try:
        measured = measure()
    finally:
        SMTCore.run = run
    return measured, results


CASES = {name: (lambda case=case: _fingerprint(case()))
         for name, case in EXACT_CASES.items()}
CASES.update({
    "accounted": _with_accountant,
    # fig. 2(c): both threads divide on the one non-pipelined divider.
    "pair-idiv-fdiv-max": lambda: _recorded(
        lambda: run_pair_cpis("idiv", "fdiv", ILP.MAX, fastpath=True)),
    # Latency-bound divide chains: nearly every tick waits on the divider.
    "fdiv-min": lambda: _recorded(
        lambda: measure_stream_cpi("fdiv", ilp=ILP.MIN, fastpath=True)),
    "idiv-min": lambda: _recorded(
        lambda: measure_stream_cpi("idiv", ilp=ILP.MIN, fastpath=True)),
    "fdiv-min-2thr": lambda: _recorded(
        lambda: measure_stream_cpi("fdiv", ilp=ILP.MIN, threads=2,
                                   fastpath=True)),
})

#: Stepped passes (``_issue`` calls): with the quiet skip as written,
#: and with every quiet tick stepped.
PASSES = {
    "accounted": (5_871, 20_059),
    "fdiv-fdiv": (2_788, 72_076),
    "fdiv-min": (760, 16_392),
    "fdiv-min-2thr": (5_763, 145_668),
    "idiv-min": (751, 20_400),
    "lu-tlp-coarse": (16_767, 20_214),
    "mm-tlp-pfetch": (29_833, 32_928),
    "pair-idiv-fdiv-max": (2_747, 28_612),
    "single-thread": (4_647, 12_918),
    "unified-queues": (7_553, 30_504),
    "zero-latency-iadd": (4_005, 4_005),
    "zero-latency-mix": (5_930, 19_517),
}


def _run(case, monkeypatch, skip: bool) -> tuple:
    """(outcome, fast-forward counters, stepped passes) of one run."""
    passes = [0]
    issue = SMTCore._issue

    def counting(self, t):
        passes[0] += 1
        return issue(self, t)

    with monkeypatch.context() as patch:
        patch.setattr(SMTCore, "_issue", counting)
        if not skip:
            patch.setattr(SMTCore, "_quiet_advance", lambda self, t: t + 1)
        _fastpath.reset_stats()
        outcome = case()
        counters = _fastpath.stats().to_dict()
    _fastpath.reset_stats()
    return outcome, counters, passes[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_quiet_skip_equals_stepping(name, monkeypatch):
    skipped = _run(CASES[name], monkeypatch, skip=True)
    stepped = _run(CASES[name], monkeypatch, skip=False)
    assert skipped[0] == stepped[0]
    assert skipped[1] == stepped[1]
    assert (skipped[2], stepped[2]) == PASSES[name]
