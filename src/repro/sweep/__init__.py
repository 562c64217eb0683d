"""Parallel sweep engine with a content-addressed result cache.

The paper's artifacts are all sweeps — fig. 1 is 11 streams x 3 ILP
levels x 2 TLP modes, fig. 2 a full pairwise co-execution matrix,
figs. 3–5 a (variant x size) grid per application.  Every cell of
those grids is an independent measurement, so this package turns each
driver into a cell enumerator and centralizes execution:

* :class:`SweepCell` — one self-contained, picklable measurement
  (:mod:`repro.sweep.cells`);
* :class:`SweepEngine` — ordered, deterministic fan-out across a
  process-pool executor (``jobs=1`` = the old serial path) with
  per-cell memoization (:mod:`repro.sweep.engine`);
* :class:`ResultCache` — on-disk content-addressed store keyed by a
  canonical hash of (cell config, simulator config, schema version,
  repro version) (:mod:`repro.sweep.cache`, :mod:`repro.sweep.keys`).

Determinism is the design invariant: a sweep run with ``--jobs 4``,
``--jobs 1``, or entirely from a warm cache yields byte-identical
reports (modulo wall-time fields) — enforced by
``tests/sweep/test_determinism.py``.
"""

from repro.sweep.cache import ResultCache
from repro.sweep.cells import (
    CellRunner,
    SweepCell,
    app_cell,
    cell_label,
    pair_cell,
    register,
    runner_for,
    stream_cell,
    stream_recipe,
    table1_cell,
    workload_fingerprint,
)
from repro.sweep.engine import SweepEngine, SweepStats
from repro.sweep.keys import (
    CACHE_SCHEMA_VERSION,
    cache_key,
    canonical_json,
    canonicalize,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CellRunner",
    "ResultCache",
    "SweepCell",
    "SweepEngine",
    "SweepStats",
    "app_cell",
    "cache_key",
    "cell_label",
    "canonical_json",
    "canonicalize",
    "pair_cell",
    "register",
    "runner_for",
    "stream_cell",
    "stream_recipe",
    "table1_cell",
    "workload_fingerprint",
]
