"""``repro serve`` — the sweep engine as a long-running service.

The CLI pays interpreter start-up, static preflight, and pool spin-up
on every invocation — even when every requested cell is already in the
content-addressed object store.  This package keeps all of that
resident: a persistent process-pool executor (the CLI engine's own,
failing a dead worker's cells at once with ``WorkerLost``) behind an
asyncio HTTP/JSON daemon, with two performance pillars:

* a **warm-hit fast path** that answers straight from the object
  store — no pool dispatch, no preflight, no oracle re-run (the store
  holds only results that passed both before they were published) —
  microseconds per cell, single-digit milliseconds per HTTP batch;
* **single-flight request coalescing** keyed on the cell's existing
  cache key — N concurrent clients asking for the same in-flight cell
  share one computation, and all N receive the one result.

Modules (imported on demand; this package imports none of them, so
``repro.cli`` can load :mod:`repro.serve.targets` without the HTTP
stack):

* :mod:`repro.serve.coalesce`  — the single-flight table;
* :mod:`repro.serve.scheduler` — the engine's cell pipeline behind the
  flight table, a persistent executor, counters, telemetry;
* :mod:`repro.serve.targets`   — named sweep targets (fig1/fig2/app/
  table1) resolved to cells + the report builder; the CLI figure verbs
  use the same resolver, so served manifests are byte-identical to
  the CLI's by construction;
* :mod:`repro.serve.app`       — the stdlib-only asyncio HTTP server
  (JSON endpoints + server-sent-event telemetry stream);
* :mod:`repro.serve.client`    — blocking HTTP client used by the
  benchmarks, the CI smoke, and scripts.
"""
