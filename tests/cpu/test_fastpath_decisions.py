"""The detector's decisions, pinned exactly.

The equivalence suites prove that a jump never changes a result; they
cannot see a change in *which* jumps the detector takes.  A capture-
policy edit that moves one jump still passes them, yet it moves the
benchmark's pinned fast-forward counts.  These cells pin the exact
``(jumps, ticks_skipped)`` of the stream, dual-thread, pair-certificate
and tiled-certificate paths, so such an edit fails here first, in
seconds.
"""

import pytest

from repro.core.coexec import run_pair_cpis
from repro.core.streams import measure_stream_cpi
from repro.cpu import fastpath as _fastpath
from repro.isa.streams import ILP
from tests.cpu.test_fastpath_stats import _tiled_loop_program


@pytest.fixture(autouse=True)
def _fresh_counters():
    _fastpath.reset_stats()
    yield
    _fastpath.reset_stats()


def _decisions():
    st = _fastpath.stats()
    return st.jumps, st.ticks_skipped


@pytest.mark.parametrize("threads, want", [(1, (2, 56_400)),
                                           (2, (2, 65_376))])
def test_stream_run(threads, want):
    measure_stream_cpi("fload", ilp=ILP.MAX, threads=threads)
    assert _decisions() == want


@pytest.mark.parametrize("a, b, want", [
    ("iadd", "imul", (2, 219_184)),
    ("fstore", "istore", (2, 134_976)),
])
def test_pair_run(a, b, want):
    run_pair_cpis(a, b, ILP.MAX)
    assert _decisions() == want


def test_tiled_certified_run():
    prog, _trace = _tiled_loop_program(tiles=4, passes=128)
    prog.run()
    assert _decisions() == (1, 31_488)
