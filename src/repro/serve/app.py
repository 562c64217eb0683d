"""The daemon's HTTP face: a small, dependency-free asyncio server.

Protocol (JSON over HTTP/1.1, keep-alive):

* ``GET /healthz`` — liveness: ``{"ok": true, "version": ...}``.
* ``GET /stats`` — the scheduler's :meth:`describe` snapshot
  (counters, pool state, in-flight count, cache shape).
* ``GET /manifest?target=fig1[&streams=a,b]`` (also ``fig2`` +
  ``panel``/``ilp``, ``app`` + ``name``/``size``, ``table1``) — the
  volatile-stripped run manifest, byte-identical to the CLI's
  ``--report`` output after :func:`repro.observe.report.strip_volatile`.
* ``POST /sweep`` — body ``{"target": ..., ...params, "fresh": bool}``;
  responds ``{"target", "kind", "manifest", "serve"}`` where
  ``serve`` is the per-request :class:`BatchOutcome` (volatile).
* ``POST /cells`` — body ``{"cells": [{"kind", "config"}, ...],
  "fresh": bool}``; responds the raw canonical cell payloads in order.
* ``GET /events[?limit=N]`` — server-sent events bridging the
  telemetry bus: each frame is ``data: <JSONL record>``.  ``limit``
  ends the stream deterministically after N events (the testable
  mode); without it the stream follows the log until the client
  disconnects.

Error taxonomy: malformed requests, unknown targets and bad cell specs
are 400; a static preflight or model-oracle rejection is 422 (the
request was well-formed — the *physics* refused); anything else is a
500 with the exception type in the body.  Handler work runs on a
dedicated thread pool so slow simulations never stall the accept loop,
and concurrent identical requests genuinely overlap (which is what
lets the single-flight table coalesce them).

The worker pool forks in :meth:`ServeApp.start` *before* the listening
socket opens and before any executor thread spawns — workers inherit a
quiet, single-threaded parent.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

from repro import __version__
from repro.common.errors import CheckError, ConfigError, UsageError
from repro.observe.report import indented_json, strip_volatile
from repro.serve.scheduler import CellScheduler
from repro.serve.targets import manifest_bytes, parse_cells, resolve_target

#: Request-body ceiling — a cell batch is small; anything bigger is a
#: client bug, rejected before buffering it.
MAX_BODY_BYTES = 8 << 20

#: Header ceilings.  Per-line size is already capped by the
#: StreamReader limit; these bound the *count* and cumulative bytes so
#: a client streaming headers forever cannot grow the header dict
#: without bound.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 64 << 10

#: Handler threads.  Far above the worker-pool width on purpose: the
#: point is that N identical concurrent requests all *enter* the
#: single-flight table together (one leads, N-1 join), which requires
#: N truly concurrent handler threads, not N queued ones.
EXECUTOR_THREADS = 32

#: /events poll cadence and the idle cutoff for ``limit``-bounded
#: streams (don't hang a bounded client forever on a quiet daemon).
EVENTS_POLL_S = 0.1
EVENTS_IDLE_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}

_ROUTES = ("/healthz", "/stats", "/manifest", "/sweep", "/cells",
           "/events")

#: A dispatch result: HTTP status plus either a JSON-able payload or
#: pre-encoded body bytes (the manifest path, where bytes ARE the
#: contract).
Response = Tuple[int, Union[dict, list, bytes]]


def _fresh_flag(params: Dict[str, Any]) -> bool:
    """Pop the ``fresh`` flag (JSON bool or query-string text)."""
    value = params.pop("fresh", False)
    if isinstance(value, str):
        return value.strip().lower() in ("1", "true", "yes", "on")
    return bool(value)


def _query_params(query: Dict[str, str]) -> Dict[str, Any]:
    """Coerce /manifest query-string values to the body-param types."""
    params: Dict[str, Any] = dict(query)
    if "size" in params:
        try:
            params["size"] = int(params["size"])
        except ValueError:
            raise ConfigError(f"size must be an integer, "
                              f"got {params['size']!r}")
    return params


def _json_body(body: bytes) -> Dict[str, Any]:
    try:
        params = json.loads(body) if body else {}
    except ValueError as e:
        raise ConfigError(f"request body is not valid JSON: {e}")
    if not isinstance(params, dict):
        raise ConfigError("request body must be a JSON object")
    return params


def _read_new_events(path: str, pos: int) -> Tuple[List[dict], int]:
    """Complete JSONL records appended since byte offset ``pos``.

    A torn final line (a writer mid-record) is left unconsumed; the
    next poll picks it up whole — same contract as
    :func:`repro.telemetry.bus.read_events`.
    """
    try:
        with open(path, "rb") as fp:
            fp.seek(pos)
            data = fp.read()
    except OSError:
        return [], pos
    events: List[dict] = []
    consumed = 0
    for line in data.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        try:
            events.append(json.loads(line))
        except ValueError:
            break
        consumed += len(line)
    return events, pos + consumed


class ServeApp:
    """One daemon: a scheduler plus the asyncio front end."""

    def __init__(self, scheduler: CellScheduler,
                 executor_threads: int = EXECUTOR_THREADS):
        self.scheduler = scheduler
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="serve")
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        # Fork the worker pool first: no listening socket, no executor
        # threads, no request state exists yet.
        self.scheduler.start()
        self._server = await asyncio.start_server(self._handle,
                                                  host=host, port=port)
        return self._server

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        assert self._server is not None
        return [s.getsockname()[:2] for s in self._server.sockets]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)
        self.scheduler.close()

    # -- the connection loop -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except ValueError as e:
                    self._write_response(writer, 400,
                                         {"error": str(e)}, keep=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                if path == "/events" and method == "GET":
                    await self._serve_events(query, writer)
                    break
                keep = headers.get("connection", "").lower() != "close"
                status, payload = await self._dispatch(method, path,
                                                       query, body)
                self._write_response(writer, status, payload, keep=keep)
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(raw)
            if (len(headers) >= MAX_HEADER_LINES
                    or header_bytes > MAX_HEADER_BYTES):
                raise ValueError(
                    f"too many request headers (limits: "
                    f"{MAX_HEADER_LINES} lines, "
                    f"{MAX_HEADER_BYTES} bytes)")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise ValueError("malformed header line")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise ValueError("malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = dict(parse_qsl(split.query))
        return method, split.path, query, headers, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        payload: Union[dict, list, bytes],
                        keep: bool) -> None:
        body = (payload if isinstance(payload, bytes)
                else (indented_json(payload) + "\n").encode())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep else 'close'}\r\n"
                f"\r\n")
        writer.write(head.encode("latin-1") + body)

    # -- routing -------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        query: Dict[str, str], body: bytes) -> Response:
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "version": __version__}
        if path == "/stats" and method == "GET":
            return 200, self.scheduler.describe()
        try:
            if path == "/manifest" and method == "GET":
                return await self._run(self._do_manifest,
                                       _query_params(query))
            if path == "/sweep" and method == "POST":
                return await self._run(self._do_sweep, _json_body(body))
            if path == "/cells" and method == "POST":
                return await self._run(self._do_cells, _json_body(body))
        except (ConfigError, UsageError) as e:
            return 400, {"error": str(e)}
        if path in _ROUTES:
            return 405, {"error": f"{method} is not allowed on {path}"}
        return 404, {"error": f"no route {path!r}; have {list(_ROUTES)}"}

    async def _run(self, fn, params: Dict[str, Any]) -> Response:
        """Run one handler on the executor; map exceptions to statuses."""
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._executor, fn, params)
        except (ConfigError, UsageError) as e:
            return 400, {"error": str(e)}
        except CheckError as e:
            return 422, {"error": str(e),
                         "check": getattr(e, "check", None)}
        except Exception as e:  # noqa: BLE001 - the 500 boundary
            self.scheduler.counters.add(errors=1)
            return 500, {"error": f"{type(e).__name__}: {e}"}

    # -- handlers (executor threads; blocking is fine here) ------------

    def _do_manifest(self, params: Dict[str, Any]) -> Response:
        params.pop("fresh", None)  # a manifest is cache-temperature-blind
        target = resolve_target(params)
        results, _outcome = self.scheduler.fetch_results(target.cells)
        return 200, manifest_bytes(target.report(target.assemble(results)))

    def _do_sweep(self, params: Dict[str, Any]) -> Response:
        fresh = _fresh_flag(params)
        target = resolve_target(params)
        results, outcome = self.scheduler.fetch_results(target.cells,
                                                        fresh=fresh)
        report = target.report(target.assemble(results))
        return 200, {"target": target.name, "kind": target.kind,
                     "manifest": strip_volatile(report),
                     "serve": outcome.to_dict()}

    def _do_cells(self, params: Dict[str, Any]) -> Response:
        fresh = _fresh_flag(params)
        cells, keys = parse_cells(params.get("cells"))
        payloads, outcome = self.scheduler.fetch_payloads(cells,
                                                          fresh=fresh,
                                                          keys=keys)
        return 200, {"results": payloads, "serve": outcome.to_dict()}

    # -- server-sent events --------------------------------------------

    async def _serve_events(self, query: Dict[str, str],
                            writer: asyncio.StreamWriter) -> None:
        bus = self.scheduler.telemetry
        if bus is None:
            self._write_response(writer, 400,
                                 {"error": "telemetry is disabled on "
                                  "this daemon"}, keep=False)
            await writer.drain()
            return
        limit: Optional[int] = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                self._write_response(writer, 400,
                                     {"error": "limit must be an "
                                      "integer"}, keep=False)
                await writer.drain()
                return
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-store\r\n"
                "Connection: close\r\n"
                "\r\n")
        writer.write(head.encode("latin-1"))
        await writer.drain()
        sent = 0
        pos = 0
        idle = 0.0
        while limit is None or sent < limit:
            events, pos = _read_new_events(bus.path, pos)
            if not events:
                if limit is not None and idle >= EVENTS_IDLE_TIMEOUT_S:
                    break
                writer.write(b": keepalive\n\n")
                await writer.drain()
                await asyncio.sleep(EVENTS_POLL_S)
                idle += EVENTS_POLL_S
                continue
            idle = 0.0
            for record in events:
                frame = "data: " + json.dumps(
                    record, separators=(",", ":")) + "\n\n"
                writer.write(frame.encode())
                sent += 1
                if limit is not None and sent >= limit:
                    break
            await writer.drain()


async def _amain(app: ServeApp, host: str, port: int,
                 ready_file: Optional[str] = None) -> None:
    server = await app.start(host, port)
    bound_host, bound_port = app.addresses[0]
    print(f"repro serve: listening on http://{bound_host}:{bound_port}",
          file=sys.stderr, flush=True)
    if ready_file:
        # Atomic, like everything else: a watcher polling the ready
        # file must never read half an address.
        tmp = ready_file + ".tmp"
        with open(tmp, "w") as fp:
            fp.write(f"{bound_host} {bound_port}\n")
        os.replace(tmp, ready_file)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await app.close()


def run_server(scheduler: CellScheduler, host: str = "127.0.0.1",
               port: int = 0, ready_file: Optional[str] = None) -> int:
    """Blocking entry point (the ``repro serve`` command)."""
    app = ServeApp(scheduler)
    try:
        asyncio.run(_amain(app, host, port, ready_file))
    except KeyboardInterrupt:
        pass
    return 0
