"""The perf-regression ledger's gate rules, against scratch ledgers.

``benchmarks/ledger.py`` is a script-style module (the benchmarks
directory is not a package), so it is imported here by path.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.telemetry import TELEMETRY_SCHEMA_VERSION, schema_fingerprint

_LEDGER_PY = pathlib.Path(__file__).parents[2] / "benchmarks" / "ledger.py"


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("_test_ledger", _LEDGER_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["_test_ledger"] = mod
    spec.loader.exec_module(mod)
    yield mod
    del sys.modules["_test_ledger"]


def _entry(ledger, path, kind, data, host="host-a", **meta):
    return ledger.append(kind, data, ledger_path=path, host=host,
                         git_sha="0" * 40, **meta)


class TestAppendAndRead:
    def test_round_trip(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        entry = _entry(ledger, path, "bench_core", {"total_seconds": 1.5})
        read = ledger.read(path)
        assert read == [entry]
        assert read[0]["ledger_schema_version"] == ledger.LEDGER_SCHEMA_VERSION
        assert read[0]["telemetry_schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert read[0]["telemetry_fingerprint"] == schema_fingerprint()

    def test_unknown_kind_rejected(self, ledger, tmp_path):
        with pytest.raises(ValueError, match="unknown ledger kind"):
            ledger.append("bench_nope", {}, ledger_path=tmp_path / "L.jsonl")

    def test_missing_ledger_reads_empty(self, ledger, tmp_path):
        assert ledger.read(tmp_path / "absent.jsonl") == []

    def test_head_sha_marks_uncommitted_sources(self, ledger, monkeypatch):
        out = {"rev-parse": "abc", "status": " M src/repro/cpu/core.py"}
        monkeypatch.setattr(ledger, "_git", lambda *args: out[args[0]])
        assert ledger.head_sha() == "abc+dirty"
        out["status"] = "unknown"
        assert ledger.head_sha() == "abc"


class TestCheckRules:
    def test_empty_ledger_is_ok(self, ledger, tmp_path):
        ok, lines = ledger.check(tmp_path / "absent.jsonl")
        assert ok and "nothing to check" in lines[0]

    def test_consistent_schema_passes(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_core", {"total_seconds": 1.0})
        ok, lines = ledger.check(path)
        assert ok
        assert any(line.startswith("ok   schema") for line in lines)

    def test_schema_drift_without_bump_fails(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_core", {"total_seconds": 1.0})
        ok, lines = ledger.check(path, fingerprint="f" * 64)
        assert not ok
        assert any("FAIL schema" in line and "without a" in line
                   for line in lines)

    def test_schema_drift_with_bump_passes(self, ledger, tmp_path):
        # A version bump legitimizes a moved fingerprint: hand-write an
        # entry recorded under the previous schema version.
        path = tmp_path / "L.jsonl"
        entry = ledger.make_entry("bench_core", {"total_seconds": 1.0},
                                  git_sha="0" * 40, host="host-a")
        entry["telemetry_schema_version"] = TELEMETRY_SCHEMA_VERSION - 1
        entry["telemetry_fingerprint"] = "e" * 64
        path.write_text(json.dumps(entry) + "\n")
        ok, _ = ledger.check(path)
        assert ok

    def test_same_host_regression_fails(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_core", {"total_seconds": 10.0})
        _entry(ledger, path, "bench_core", {"total_seconds": 13.0})
        ok, lines = ledger.check(path)
        assert not ok                          # 1.3x > the 1.25x band
        assert any("FAIL bench_core" in line for line in lines)
        # The gate always compares against the *previous* entry, so a
        # recovery run turns the trajectory green again.
        _entry(ledger, path, "bench_core", {"total_seconds": 11.0})
        ok, _ = ledger.check(path)
        assert ok

    def test_within_tolerance_passes(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_core", {"total_seconds": 10.0})
        _entry(ledger, path, "bench_core", {"total_seconds": 12.0})
        ok, lines = ledger.check(path)
        assert ok
        assert any("ok   bench_core: wall 12.000s vs 10.000s" in line
                   for line in lines)

    def test_cross_host_is_never_gated(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_core", {"total_seconds": 1.0},
               host="host-a")
        _entry(ledger, path, "bench_core", {"total_seconds": 100.0},
               host="host-b")
        ok, lines = ledger.check(path)
        assert ok
        assert any("no same-host baseline" in line for line in lines)

    def test_sweep_overhead_band(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_sweep",
               {"seconds_on": 1.0, "overhead_pct": 2.0})
        ok, lines = ledger.check(path)
        assert ok and any("telemetry overhead 2.0%" in line for line in lines)
        _entry(ledger, path, "bench_sweep",
               {"seconds_on": 1.0,
                "overhead_pct": ledger.OVERHEAD_FAIL_PCT + 5.0})
        ok, lines = ledger.check(path)
        assert not ok
        assert any("FAIL bench_sweep" in line for line in lines)

    def test_serve_warm_hit_gate(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_serve",
               {"total_seconds": 1.0, "warm": {"p50_ms": 1.0}})
        ok, lines = ledger.check(path)
        assert ok
        assert any("no same-host warm-hit baseline" in line
                   for line in lines)
        # Within tolerance: passes with the comparison rendered.
        _entry(ledger, path, "bench_serve",
               {"total_seconds": 1.0, "warm": {"p50_ms": 1.2}})
        ok, lines = ledger.check(path)
        assert ok
        assert any("ok   bench_serve: warm-hit p50 1.200ms vs 1.000ms"
                   in line for line in lines)
        # Beyond tolerance: fails.
        _entry(ledger, path, "bench_serve",
               {"total_seconds": 1.0, "warm": {"p50_ms": 2.0}})
        ok, lines = ledger.check(path)
        assert not ok
        assert any("FAIL bench_serve: warm-hit p50 2.000ms" in line
                   for line in lines)

    def test_serve_warm_hit_cross_host_never_gated(self, ledger,
                                                   tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_serve",
               {"total_seconds": 1.0, "warm": {"p50_ms": 1.0}},
               host="host-a")
        _entry(ledger, path, "bench_serve",
               {"total_seconds": 1.0, "warm": {"p50_ms": 50.0}},
               host="host-b")
        ok, lines = ledger.check(path)
        assert ok
        assert any("no same-host warm-hit baseline" in line
                   for line in lines)

    def test_regression_gate_uses_headline_wall(self, ledger, tmp_path):
        # bench_sweep entries gate on seconds_on (no total_seconds).
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_sweep",
               {"seconds_on": 4.0, "overhead_pct": 1.0})
        _entry(ledger, path, "bench_sweep",
               {"seconds_on": 9.0, "overhead_pct": 1.0})
        ok, lines = ledger.check(path)
        assert not ok
        assert any("FAIL bench_sweep: wall 9.000s" in line for line in lines)


class TestShowAndCLI:
    def test_show_renders_rows(self, ledger, tmp_path):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_model", {"total_seconds": 1.18})
        text = ledger.show(path)
        assert "bench_model" in text and "1.180s" in text and "host-a" in text

    def test_show_empty(self, ledger, tmp_path):
        assert "empty" in ledger.show(tmp_path / "absent.jsonl")

    def test_main_check_exit_codes(self, ledger, tmp_path, capsys):
        path = tmp_path / "L.jsonl"
        _entry(ledger, path, "bench_core", {"total_seconds": 10.0})
        assert ledger.main(["--check", "--ledger", str(path)]) == 0
        _entry(ledger, path, "bench_core", {"total_seconds": 99.0})
        assert ledger.main(["--check", "--ledger", str(path)]) == 1
        assert "FAIL bench_core" in capsys.readouterr().out
