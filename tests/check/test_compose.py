"""The pair-composition certification pass: joint lattice facts,
interference windows, guard-aware splices, machine checking, and the
joint static/dynamic agreement property.

The property test at the bottom is the pair analog of the recurrence
pass's soundness contract: for any fig.-2 pair, if the dual-thread
fast-forward proves a joint pair and jumps, each thread's position
delta is a whole multiple of that side's statically certified
``period_pos`` — or the detector declines to jump at all.
"""

import dataclasses
import math

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.check.compose import (
    COMPOSE_SCHEMA_VERSION,
    PairCertificate,
    _stream_trace,
    cached_pair_certificate,
    compose_findings,
    compose_pair,
    pair_inventory,
)
from repro.check.findings import Severity
from repro.core.coexec import fig2_pairs, run_pair_cpis
from repro.cpu import fastpath as _fastpath
from repro.isa.streams import ILP


def _traces(name_a, name_b, ilp=ILP.MAX):
    return _stream_trace(name_a, ilp), _stream_trace(name_b, ilp)


class TestJointLattice:
    def test_joint_period_is_the_lcm(self):
        cert = compose_pair("fload", "iadd")
        assert cert.verdict == "joint-periodic"
        assert cert.joint_period_pos == math.lcm(cert.period_a,
                                                 cert.period_b)
        assert cert.rr_parity == 2

    def test_every_fig2_pair_is_joint_periodic(self):
        for a, b in fig2_pairs():
            cert = compose_pair(a, b)
            assert cert.verdict == "joint-periodic", (a, b)
            assert cert.joint_period_pos > 0

    def test_fig2_inventory_is_the_full_matrix(self):
        # 5x5 upper triangles of both same-type panels (15 each) plus
        # the 3x3 fp-x-int grid.
        assert len(fig2_pairs()) == 15 + 15 + 9

    def test_splices_cover_exactly_the_memory_sides(self):
        cert = compose_pair("fload", "iadd")
        assert [s.thread for s in cert.splices] == [0]
        both = compose_pair("fstore", "istore")
        assert [s.thread for s in both.splices] == [0, 1]
        assert all(s.reason == "wrap-guard" for s in both.splices)

    def test_splice_window_respects_the_guard(self):
        cert = compose_pair("fload", "fload")
        trace_a, _ = _traces("fload", "fload")
        want = max(0, trace_a.span - cert.guard_bytes) // trace_a.stride
        assert cert.splices[0].limit_pos == want
        assert want < trace_a.span // trace_a.stride

    def test_interference_rows_match_shared_units(self):
        cert = compose_pair("fdiv", "fdiv")
        assert "fpdiv" in cert.shared_units
        assert tuple(w.unit for w in cert.interference) \
            == cert.shared_units
        assert all(w.demand_a > 0 and w.demand_b > 0
                   for w in cert.interference)


class TestMachineCheck:
    def test_honest_certificates_validate_clean(self):
        for a, b in (("fload", "iload"), ("fadd", "imul"),
                     ("fdiv", "fdiv")):
            cert = compose_pair(a, b)
            assert cert.validate(*_traces(a, b)) == [], (a, b)

    def test_forged_joint_lattice_is_rejected(self):
        cert = compose_pair("fload", "iload")
        forged = dataclasses.replace(
            cert, joint_period_pos=2 * cert.joint_period_pos)
        assert any("joint_period_pos" in p
                   for p in forged.validate(*_traces("fload", "iload")))

    def test_forged_verdict_is_rejected(self):
        cert = compose_pair("fload", "iload")
        forged = dataclasses.replace(cert, verdict="none")
        assert any("verdict" in p
                   for p in forged.validate(*_traces("fload", "iload")))

    def test_wrong_pair_is_rejected(self):
        cert = compose_pair("fdiv", "fdiv")
        assert cert.validate(*_traces("fload", "iload"))

    def test_stale_schema_version_is_rejected(self):
        cert = dataclasses.replace(
            compose_pair("fload", "iload"),
            schema_version=COMPOSE_SCHEMA_VERSION + 1)
        assert any("schema_version" in p
                   for p in cert.validate(*_traces("fload", "iload")))

    def test_kind_mismatch_is_rejected(self):
        cert = dataclasses.replace(compose_pair("fload", "iload"),
                                   kind="stream")
        assert any("kind" in p
                   for p in cert.validate(*_traces("fload", "iload")))

    def test_forged_interference_is_rejected(self):
        cert = compose_pair("fdiv", "fdiv")
        forged = dataclasses.replace(cert, interference=())
        assert any("interference" in p
                   for p in forged.validate(*_traces("fdiv", "fdiv")))

    def test_forged_splices_are_rejected(self):
        cert = compose_pair("fload", "iload")
        forged = dataclasses.replace(cert, splices=())
        assert any("splices" in p
                   for p in forged.validate(*_traces("fload", "iload")))


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        cert = compose_pair("fstore", "istore", subject="fig2c/0")
        back = PairCertificate.from_dict(cert.to_dict())
        assert back == cert

    def test_fingerprint_ignores_the_subject(self):
        cert = compose_pair("fload", "iload", subject="")
        relabeled = dataclasses.replace(cert, subject="fig2/cell-7")
        assert cert.fingerprint() == relabeled.fingerprint()

    def test_fingerprint_sees_structure(self):
        assert compose_pair("fload", "iload").fingerprint() \
            != compose_pair("fadd", "imul").fingerprint()

    def test_cached_fingerprint_matches_fresh_composition(self):
        fresh = compose_pair("fload", "iload").fingerprint()
        assert cached_pair_certificate(
            "fload", "iload", "MAX").fingerprint() == fresh


class TestPassAndInventory:
    def test_findings_summarize_the_certificate(self):
        findings = compose_findings("fdiv", "fdiv")
        assert len(findings) == 1
        f = findings[0]
        assert f.check == "compose" and f.severity is Severity.INFO
        assert f.data["verdict"] == "joint-periodic"
        assert len(f.data["fingerprint"]) == 16

    def test_inventory_covers_the_matrix(self):
        inv = pair_inventory()
        assert inv["schema_version"] == COMPOSE_SCHEMA_VERSION
        assert len(inv["pairs"]) == len(fig2_pairs())
        assert all(e["verdict"] == "joint-periodic"
                   for e in inv["pairs"])
        assert all(len(e["fingerprint"]) == 16 for e in inv["pairs"])


# ---------------------------------------------------------------------------
# Joint static/dynamic agreement (the soundness property)
# ---------------------------------------------------------------------------

@seed(20260808)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(pair=st.sampled_from(sorted(fig2_pairs())))
def test_static_periods_divide_every_joint_jump(pair):
    """For any fig.-2 pair: if the dual-thread fast-forward proves a
    joint pair and jumps, each thread's position delta of the anchor
    pair is a whole multiple of that side's statically certified
    ``period_pos``; otherwise it declines — never a jump off the joint
    lattice."""
    name_a, name_b = pair
    cert = compose_pair(name_a, name_b)
    assert cert.verdict == "joint-periodic"

    _fastpath._last_jump = None
    _fastpath.reset_stats()
    run_pair_cpis(name_a, name_b, ILP.MAX, horizon_ticks=60_000,
                  fastpath=True)
    jump = _fastpath.last_jump()
    if jump is None:
        assert _fastpath.stats().jumps == 0
        return
    assert jump["k"] >= 1
    for dp, period in zip(jump["dps"], (cert.period_a, cert.period_b)):
        assert dp % period == 0, (
            f"joint jump delta {dp} is off the certified "
            f"period-{period} lattice for {name_a}+{name_b}")
