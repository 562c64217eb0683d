"""Fastpath refresh guard: the fast-forward must be invisible in every
report that could ever be pinned as a golden fixture.

Each test derives the same small fig2 / app report under three
execution regimes — fast-forward forced off (every tick stepped),
forced on (super-period and tile-level jumps engaged), and a warm
replay in the same process (compiled-trace caches and detector tables
already populated) — and asserts all three reproduce the committed
fixture byte-for-byte.  A ``--update-golden`` refresh that captured a
fastpath-perturbed report is therefore impossible: the stepped arm
would diverge from it immediately.
"""

import dataclasses
import json

import pytest

from repro.core.apps import Variant, run_app_experiment
from repro.core.coexec import run_pair_cpis
from repro.cpu import fastpath as _fastpath
from repro.isa import ILP

pytestmark = pytest.mark.slow

#: One super-period pair (arith) and one stream-region pair (memory):
#: the two detector tiers fig2 exercises.
PAIRS = (("iadd", "imul"), ("fload", "iload"))

#: One tiled workload per tier of the app detector: mm has tile-level
#: phase structure, cg a whole-iteration recurrence.
APPS = (("mm", {"n": 16}),
        ("cg", {"n": 64, "nnz_per_row": 8, "iterations": 3}))


def _fig2_report(enabled):
    return [list(run_pair_cpis(a, b, ilp=ILP.MAX, fastpath=enabled))
            for a, b in PAIRS]


def _app_report(enabled):
    out = []
    for app, size in APPS:
        r = run_app_experiment(app, Variant.SERIAL, size,
                               fastpath=enabled)
        d = dataclasses.asdict(dataclasses.replace(r, wall_time_s=0.0))
        d["variant"] = r.variant.name
        out.append(json.loads(json.dumps(d)))
    return out


class TestFig2RefreshGuard:
    @pytest.fixture(scope="class")
    def stepped(self):
        return _fig2_report(False)

    def test_stepped_matches_fixture(self, stepped, golden_check):
        golden_check("fig2_fastpath_guard", stepped)

    def test_fastpath_on_matches_fixture(self, stepped, golden_check):
        _fastpath.reset_stats()
        report = _fig2_report(True)
        assert report == stepped
        assert _fastpath.stats().jumps >= 1, (
            "guard run never jumped; it guards nothing")
        golden_check("fig2_fastpath_guard", report)

    def test_warm_replay_matches_fixture(self, stepped, golden_check):
        _fig2_report(True)                     # warm the caches
        report = _fig2_report(True)            # replay
        assert report == stepped
        golden_check("fig2_fastpath_guard", report)


class TestCertificationRefreshGuard:
    """Certificates are capture hints, never inputs to the result: the
    same app report must come out byte-identical with certification
    active (certificate-guided captures), stripped (build-time
    attachment disabled, so every tiled run stands down as
    ``cert-absent``), and on a warm replay with certification
    active."""

    @pytest.fixture(scope="class")
    def certified(self):
        _fastpath.reset_stats()
        report = _app_report(True)
        snap = _fastpath.stats().to_dict()
        # The regime must actually differ: some cell armed in cert mode
        # or stood down on a proven-fruitless certificate.
        assert snap["cert_runs"] >= 1 or \
            snap["stand_downs"].get("cert-none", 0) >= 1
        return report

    def test_certified_matches_fixture(self, certified, golden_check):
        golden_check("apps_fastpath_guard", certified)

    def test_stripped_certification_matches(self, certified, monkeypatch):
        import repro.check.recurrence as _rec

        monkeypatch.setattr(_rec, "attach_certificate",
                            lambda trace, *a, **kw: trace)
        _fastpath.reset_stats()
        report = _app_report(True)
        assert report == certified
        assert _fastpath.stats().cert_runs == 0, (
            "stripping certification must leave no cert-mode runs")

    def test_warm_certified_replay_matches(self, certified, golden_check):
        _app_report(True)                      # warm the caches
        report = _app_report(True)             # replay
        assert report == certified
        golden_check("apps_fastpath_guard", report)


class TestAppRefreshGuard:
    @pytest.fixture(scope="class")
    def stepped(self):
        return _app_report(False)

    def test_stepped_matches_fixture(self, stepped, golden_check):
        golden_check("apps_fastpath_guard", stepped)

    def test_fastpath_on_matches_fixture(self, stepped, golden_check):
        report = _app_report(True)
        assert report == stepped
        golden_check("apps_fastpath_guard", report)

    def test_warm_replay_matches_fixture(self, stepped, golden_check):
        _app_report(True)                      # warm the caches
        report = _app_report(True)             # replay
        assert report == stepped
        golden_check("apps_fastpath_guard", report)
