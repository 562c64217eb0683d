"""HTTP surface of the serve daemon: routing, error mapping, manifest
byte-identity against the CLI, and the SSE event stream.

The daemon fixture runs the real asyncio server on an ephemeral port
and the real ServeClient over a persistent HTTP/1.1 connection, so
these tests cover the wire protocol end to end, in one process.
"""

import json

import pytest

from repro import __version__
from repro import cli
from repro.observe.report import strip_volatile
from repro.serve.client import ServeError
from repro.sweep.cells import stream_recipe

H = 8_000

WARM_KW = dict(telemetry=False)


def _cell_spec(name="iadd", threads=1):
    return {
        "kind": "stream-cpi",
        "config": {
            "stream": name,
            "recipe": stream_recipe(name),
            "ilp": "MAX",
            "threads": threads,
            "horizon_ticks": H,
        },
    }


class TestRouting:
    def test_healthz(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            body = c.healthz()
        assert body == {"ok": True, "version": __version__}

    def test_stats_shape(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            stats = c.stats()
        assert stats["version"] == __version__
        assert stats["jobs"] == 1
        assert stats["pool_live"] is True  # pre-forked at startup
        assert stats["in_flight"] == 0
        assert set(stats["counters"]) >= {
            "batches", "cells", "warm_hits", "misses", "coalesced",
            "simulations", "pool_dispatches", "errors",
        }

    def test_unknown_route_404(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c._json("GET", "/nope")
        assert exc.value.status == 404

    def test_wrong_method_405(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c._json("GET", "/sweep")
        assert exc.value.status == 405

    def test_bad_json_400(self, tmp_path, daemon_factory):
        import http.client

        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        conn = http.client.HTTPConnection(d.host, d.port, timeout=30)
        try:
            conn.request("POST", "/cells", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            resp.read()
        finally:
            conn.close()

    def test_unbounded_headers_400(self, tmp_path, daemon_factory):
        """A client streaming headers forever must be cut off with a
        400, not buffered without bound."""
        import socket

        from repro.serve.app import MAX_HEADER_LINES

        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        flood = b"GET /healthz HTTP/1.1\r\n" + b"".join(
            f"x-flood-{i}: y\r\n".encode()
            for i in range(MAX_HEADER_LINES + 1)) + b"\r\n"
        with socket.create_connection((d.host, d.port),
                                      timeout=30) as sock:
            sock.sendall(flood)
            status = sock.makefile("rb").readline()
        assert b"400" in status


class TestCells:
    def test_round_trip_and_warm_second_call(self, tmp_path,
                                             daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        spec = _cell_spec()
        with d.client() as c:
            first = c.cells([spec])
            second = c.cells([spec])
        assert first["serve"]["misses"] == 1
        assert second["serve"]["warm_hits"] == 1
        assert first["results"] == second["results"]
        result = first["results"][0]
        assert result["stream"] == "iadd"
        assert result["cpi"] > 0

    def test_unknown_kind_400(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c.cells([{"kind": "nonsense", "config": {}}])
        assert exc.value.status == 400

    def test_malformed_config_400(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c.cells([_cell_spec(), {"kind": "app-run", "config": {}}])
        assert exc.value.status == 400
        assert "cell #1 has an invalid 'app-run' config" in \
            exc.value.payload["error"]

    def test_each_cell_is_keyed_once_per_request(self, tmp_path,
                                                 daemon_factory,
                                                 monkeypatch):
        from repro.sweep.cells import SweepCell

        calls = []
        key = SweepCell.key

        def counting_key(cell):
            calls.append(cell.config["stream"])
            return key(cell)

        monkeypatch.setattr(SweepCell, "key", counting_key)
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        specs = [_cell_spec("iadd"), _cell_spec("fadd")]
        with d.client() as c:
            cold = c.cells(specs)
            n_cold = len(calls)
            warm = c.cells(specs)
        assert cold["serve"]["misses"] == 2
        assert warm["serve"]["warm_hits"] == 2
        assert n_cold == 2
        assert len(calls) - n_cold == 2

    def test_stale_recipe_422_with_check_field(self, tmp_path,
                                               daemon_factory):
        spec = _cell_spec()
        spec["config"]["recipe"] = {"ops": ["IADD"], "stride": 999}
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c.cells([spec])
        assert exc.value.status == 422
        assert exc.value.payload.get("check") == "preflight"


@pytest.mark.parametrize("spec", [
    {"kind": "stream-cpi", "config": {}},
    {"kind": "coexec-pair", "config": {}},
    {"kind": "app-run", "config": {}},
    {"kind": "table1-row", "config": {}},
    {"kind": "stream-cpi", "config": {
        k: v for k, v in _cell_spec()["config"].items() if k != "ilp"}},
], ids=["stream-cpi", "coexec-pair", "app-run", "table1-row",
        "stream-cpi-no-ilp"])
def test_malformed_config_400(tmp_path, daemon_factory, spec):
    d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
    with d.client() as c:
        with pytest.raises(ServeError) as exc:
            c.cells([spec])
    assert exc.value.status == 400
    assert f"cell #0 has an invalid {spec['kind']!r} config" in \
        exc.value.payload["error"]


@pytest.mark.parametrize("spec, message", [
    ({"kind": "stream-cpi", "config": {**_cell_spec()["config"],
                                       "ilp": "BOGUS"}},
     "unknown ILP level 'BOGUS'"),
    ({"kind": "coexec-pair", "config": {
        "stream_a": "iadd", "stream_b": "fadd", "ilp": "BOGUS",
        "horizon_ticks": H}}, "unknown ILP level 'BOGUS'"),
    ({"kind": "app-run", "config": {
        "app": "mm", "variant": "serial", "size": {"q": 16}}},
     "invalid size {'q': 16}"),
    ({"kind": "table1-row", "config": {
        "app": "bogus", "column": "serial", "size": {"n": 16}}},
     "unknown application 'bogus'"),
], ids=["stream-unknown-ilp", "pair-unknown-ilp", "app-bad-size",
        "table1-unknown-app"])
def test_invalid_field_value_422(tmp_path, daemon_factory, spec, message):
    d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
    with d.client() as c:
        with pytest.raises(ServeError) as exc:
            c.cells([spec])
        assert c.stats()["counters"]["preflight_rejected"] == 1
    assert exc.value.status == 422
    assert exc.value.payload.get("check") == "preflight"
    assert message in exc.value.payload["error"]


class TestSweep:
    def test_fig1_sweep_shape(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            body = c.sweep("fig1", streams=["iadd"])
        assert body["target"] == "fig1"
        assert body["kind"] == "fig1"
        manifest = body["manifest"]
        assert manifest["kind"] == "fig1"
        assert {r["stream"] for r in manifest["results"]} == {"iadd"}
        assert body["serve"]["cells"] == len(manifest["results"])

    def test_unknown_target_400(self, tmp_path, daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c.sweep("fig9")
        assert exc.value.status == 400


class TestManifestByteIdentity:
    def test_served_manifest_matches_cli_report(self, tmp_path,
                                                daemon_factory):
        """The acceptance criterion: bytes from GET /manifest equal the
        volatile-stripped CLI report for the same target — even though
        the two sides compute their results independently (disjoint
        caches)."""
        report_path = tmp_path / "cli" / "fig1.json"
        report_path.parent.mkdir()
        rc = cli.main([
            "fig1", "--streams", "iadd",
            "--cache-dir", str(tmp_path / "cli-cache"),
            "--report", str(report_path), "--no-telemetry",
        ])
        assert rc == 0
        cli_doc = strip_volatile(json.loads(report_path.read_text()))
        cli_bytes = (json.dumps(cli_doc, indent=2) + "\n").encode()

        d = daemon_factory(cache_dir=str(tmp_path / "serve-cache"),
                           **WARM_KW)
        with d.client() as c:
            served = c.manifest("fig1", streams=["iadd"])
            again = c.manifest("fig1", streams=["iadd"])  # warm path
        assert served == cli_bytes
        assert again == served


class TestGoldenValidation:
    @pytest.mark.slow
    def test_served_results_match_committed_golden_fixture(
            self, tmp_path, daemon_factory):
        """Cells served by the daemon reproduce the committed golden
        fixture exactly — the same rows `pytest tests/golden` pins for
        the CLI path (tentpole: served output is validated against the
        golden fixtures, not just against a fresh CLI run)."""
        import pathlib

        from repro.core.streams import fig1_cells
        from repro.observe import result_to_dict
        from repro.sweep import runner_for

        fixture = pathlib.Path(
            __file__).parents[1] / "golden" / "fixtures" / \
            "fig1_small.json"
        pinned = json.loads(fixture.read_text())

        cells = fig1_cells(streams=("iadd", "idiv"),
                           horizon_ticks=40_000)
        specs = [{"kind": c.kind, "config": c.config} for c in cells]
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            body = c.cells(specs)
        served = [result_to_dict(runner_for(cell.kind).decode(payload))
                  for cell, payload in zip(cells, body["results"])]
        assert served == pinned


class TestEvents:
    def test_sse_stream_carries_sweep_lifecycle(self, tmp_path,
                                                daemon_factory,
                                                monkeypatch):
        # tests/conftest.py forces REPRO_TELEMETRY=0; the bus must be
        # re-enabled for the daemon under test.
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        d = daemon_factory(cache_dir=str(tmp_path / "cache"),
                           telemetry_dir=str(tmp_path / "spool"))
        kinds = []
        with d.client() as c:
            c.cells([_cell_spec()])
            # Read up to the first cell-end, however many other
            # telemetry events precede it.
            for event in c.iter_events(limit=1_000, timeout=30.0):
                kinds.append(event["ev"])
                if event["ev"] == "cell-end":
                    break
        assert kinds[0] == "sweep-begin"
        assert kinds[-1] == "cell-end"
        assert "cell-begin" in kinds

    def test_events_400_when_telemetry_disabled(self, tmp_path,
                                                daemon_factory):
        d = daemon_factory(cache_dir=str(tmp_path), **WARM_KW)
        with d.client() as c:
            with pytest.raises(ServeError) as exc:
                c.events(limit=1, timeout=5.0)
        assert exc.value.status == 400
