"""The event bus contract: schema round-trips, atomic multi-process
appends (no torn JSONL records, ever), and the env/path plumbing."""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryBus,
    enabled_by_env,
    latest_log,
    new_log_path,
    read_events,
    schema_fingerprint,
    validate_event,
)
from repro.telemetry.bus import ENVELOPE, EVENT_FIELDS, events_by_type


class TestSchema:
    def test_round_trip_every_event(self, tmp_path):
        """Emit one record of every declared event; read back validated."""
        log = tmp_path / "t.jsonl"
        filler = {"cells": 1, "jobs": 1, "cache_enabled": True, "idx": 0,
                  "cell": "stream:iadd/MAX/x1", "queue_wait_s": 0.0,
                  "wall_s": 0.1, "fastpath": {}, "name": "probe",
                  "hits": 0, "misses": 1}
        with TelemetryBus(str(log)) as bus:
            emitted = [bus.emit(ev, **{f: filler[f] for f in fields})
                       for ev, fields in sorted(EVENT_FIELDS.items())]
        read = list(read_events(str(log), validate=True))
        assert read == emitted
        assert log.read_text() == "".join(
            json.dumps(r, separators=(",", ":")) + "\n" for r in emitted)
        assert all(r["v"] == TELEMETRY_SCHEMA_VERSION for r in read)
        assert all(r["pid"] == os.getpid() for r in read)

    def test_run_id_defaults_to_log_basename(self, tmp_path):
        bus = TelemetryBus(str(tmp_path / "fig2-0001-42.jsonl"))
        assert bus.run_id == "fig2-0001-42"
        bus.close()

    def test_validate_rejects_unknown_event(self):
        with pytest.raises(ValueError, match="unknown event"):
            validate_event({"v": TELEMETRY_SCHEMA_VERSION, "ev": "nope",
                            "ts": 0.0, "pid": 1, "run": "r"})

    def test_validate_rejects_missing_payload_field(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_event({"v": TELEMETRY_SCHEMA_VERSION, "ev": "phase",
                            "ts": 0.0, "pid": 1, "run": "r",
                            "name": "probe"})  # no wall_s

    def test_validate_rejects_version_skew(self):
        with pytest.raises(ValueError, match="schema version"):
            validate_event({"v": TELEMETRY_SCHEMA_VERSION + 1, "ev": "phase",
                            "ts": 0.0, "pid": 1, "run": "r",
                            "name": "probe", "wall_s": 0.0})

    def test_emit_validates_before_writing(self, tmp_path):
        log = tmp_path / "t.jsonl"
        with TelemetryBus(str(log)) as bus:
            with pytest.raises(ValueError):
                bus.emit("phase", name="probe")  # missing wall_s
        assert list(read_events(str(log))) == []

    def test_fingerprint_is_stable_and_schema_sensitive(self):
        fp = schema_fingerprint()
        assert fp == schema_fingerprint()
        assert len(fp) == 64
        # Any edit to the declaration must move the fingerprint — the
        # ledger's drift rule depends on it.
        EVENT_FIELDS["__probe__"] = ("x",)
        try:
            assert schema_fingerprint() != fp
        finally:
            del EVENT_FIELDS["__probe__"]
        assert schema_fingerprint() == fp

    def test_envelope_fields_lead_every_record(self, tmp_path):
        log = tmp_path / "t.jsonl"
        with TelemetryBus(str(log)) as bus:
            bus.emit("phase", name="probe", wall_s=0.0)
        raw = log.read_text().strip()
        keys = list(json.loads(raw))
        assert tuple(keys[:len(ENVELOPE)]) == ENVELOPE


class TestEnvAndPaths:
    def test_enabled_by_default(self):
        assert enabled_by_env({})

    @pytest.mark.parametrize("value", ["0", "false", "OFF", " no "])
    def test_disabled_values(self, value):
        assert not enabled_by_env({"REPRO_TELEMETRY": value})

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", ""])
    def test_enabled_values(self, value):
        assert enabled_by_env({"REPRO_TELEMETRY": value})

    def test_new_log_paths_sort_in_creation_order(self, tmp_path):
        a = new_log_path(str(tmp_path), prefix="sweep")
        b = new_log_path(str(tmp_path), prefix="sweep")
        assert a != b
        assert sorted([os.path.basename(a), os.path.basename(b)]) == \
            [os.path.basename(a), os.path.basename(b)]

    def test_latest_log_picks_newest(self, tmp_path):
        assert latest_log(str(tmp_path)) is None
        first = new_log_path(str(tmp_path))
        open(first, "w").close()
        second = new_log_path(str(tmp_path))
        open(second, "w").close()
        assert latest_log(str(tmp_path)) == second

    def test_latest_log_missing_dir(self, tmp_path):
        assert latest_log(str(tmp_path / "absent")) is None


class TestReader:
    def test_torn_tail_is_tolerated(self, tmp_path):
        log = tmp_path / "t.jsonl"
        with TelemetryBus(str(log)) as bus:
            bus.emit("phase", name="probe", wall_s=0.1)
            bus.emit("phase", name="store", wall_s=0.2)
        with open(log, "a") as fp:
            fp.write('{"v": 1, "ev": "phase", "na')  # mid-write tail
        events = list(read_events(str(log)))
        assert [e["name"] for e in events] == ["probe", "store"]

    def test_events_by_type_groups(self):
        events = [{"ev": "phase"}, {"ev": "enqueue"}, {"ev": "phase"}]
        by = events_by_type(events)
        assert len(by["phase"]) == 2 and len(by["enqueue"]) == 1


def _hammer(path, run_id, count, label):
    """Child-process emitter for the concurrency property test."""
    with TelemetryBus(path, run_id=run_id) as bus:
        for i in range(count):
            bus.emit("enqueue", idx=i, cell=label)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="atomic-append property test forks emitters")
class TestNoTornRecords:
    """The load-bearing claim: concurrent emitters from several
    processes interleave *records*, never bytes."""

    @settings(max_examples=8, deadline=None)
    @given(
        procs=st.integers(min_value=2, max_value=4),
        count=st.integers(min_value=5, max_value=40),
        label=st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            min_size=0, max_size=200),
    )
    def test_interleaved_emission_never_tears(self, tmp_path_factory,
                                              procs, count, label):
        log = str(tmp_path_factory.mktemp("bus") / "hammer.jsonl")
        ctx = multiprocessing.get_context("fork")
        children = [
            ctx.Process(target=_hammer, args=(log, f"run-{p}", count, label))
            for p in range(procs)
        ]
        for c in children:
            c.start()
        # The parent emits concurrently too — same contract.
        _hammer(log, "run-parent", count, label)
        for c in children:
            c.join()
        assert all(c.exitcode == 0 for c in children)

        # Every line must parse and validate: a single torn byte would
        # fail json.loads mid-file (read_events would stop early).
        events = list(read_events(log, validate=True))
        assert len(events) == (procs + 1) * count
        per_run = events_by_type(events)["enqueue"]
        assert len(per_run) == len(events)
        for run in [f"run-{p}" for p in range(procs)] + ["run-parent"]:
            mine = [e for e in events if e["run"] == run]
            assert [e["idx"] for e in mine] == list(range(count))
            assert all(e["cell"] == label for e in mine)
