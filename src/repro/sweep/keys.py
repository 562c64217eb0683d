"""Canonical hashing for sweep-cell cache keys.

A cache key must identify a measurement *by meaning*, not by the
accidents of how its configuration was written down.  Two configs that
differ only in dict insertion order, or in how a float was formatted
(``2.0`` vs ``2`` vs ``2.00``), describe the same cell and must map to
the same key; changing any actual field value must change the key.

The canonical form is a JSON document with

* object keys sorted lexicographically at every nesting level;
* no insignificant whitespace;
* floats that carry an integral value collapsed to integers (so a
  config hand-written with ``"n": 64`` and one round-tripped through a
  float-producing layer as ``"n": 64.0`` agree);
* non-finite floats spelled out by name (JSON has no literal for them).

``cache_key`` is the SHA-256 hex digest of that canonical text.  The
canonicalisation is used **only** for key derivation — cached result
payloads are stored verbatim, with full float fidelity.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from typing import Any

#: Bumped on any change to the canonicalisation rules, to the layout
#: of cached entries, or to what an entry guarantees; old entries then
#: miss and are recomputed.
#: v2: only results that passed preflight and the model oracle are
#: stored, and warm hits are served without re-checking.  v1 stores may
#: hold unchecked entries (``--no-check`` runs, and CLI results stored
#: before the oracle ran), so none of them may be read.
CACHE_SCHEMA_VERSION = 2

#: Version of the steady-state fast-forward machinery
#: (:mod:`repro.cpu.fastpath`).  The fast-forward is results-neutral by
#: construction, so this is *not* part of any config fingerprint — but
#: it is part of every cell cache key: if a fast-forward defect were
#: ever found and fixed, bumping this invalidates every cached entry
#: that could have been computed through the defective jump engine.
#: v3: certificate-guided capture (repro.check.recurrence) joins the
#: jump engine — cert-aligned anchors, cert-none disarm, cert-mismatch
#: fallback.
#: v4: pair-certificate-guided joint capture (repro.check.compose) —
#: lattice-residue anchors for dual-stream cells, pair-cert-none /
#: pair-cert-mismatch stand-downs, guard-aware splice sleeps in the
#: tiled extrapolation limit.
FASTPATH_SCHEMA_VERSION = 4


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to canonical JSON-compatible types (keys only)."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "float:nan"
        if math.isinf(obj):
            return "float:inf" if obj > 0 else "float:-inf"
        if obj.is_integer():
            return int(obj)
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            key = k if isinstance(k, str) else str(canonicalize(k))
            if key in out:
                raise ValueError(f"key {key!r} is ambiguous after "
                                 "canonicalisation")
            out[key] = canonicalize(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for a cache key"
    )


def canonical_json(obj: Any) -> str:
    """The canonical text form hashed by :func:`cache_key`."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


def cache_key(material: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``material``."""
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()
