"""On-disk content-addressed store for sweep-cell results.

Layout: ``<root>/objects/<key[:2]>/<key>.json`` — one JSON entry per
cell, addressed by the cell's canonical content hash (see
:mod:`repro.sweep.keys`).  Entries are written atomically (temp file +
``os.replace``) so an interrupted sweep never leaves a half-written
entry; re-running the sweep resumes from whatever completed.

Corrupt or unreadable entries are never fatal: ``get`` warns and
reports a miss, and the engine recomputes and overwrites the entry.
Only results that passed the sweep checks are ever written (see
:mod:`repro.sweep.engine`).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.common.errors import CacheError


class ResultCache:
    """Content-addressed cache of encoded sweep-cell results."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        try:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise CacheError(f"cannot create cache dir {self.root}: {e}")
        if not os.access(self.root, os.W_OK):
            raise CacheError(f"cache dir {self.root} is not writable")

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """Return the stored entry for ``key``, or None on miss.

        A present-but-unusable entry (truncated write from a killed
        process, disk corruption, a foreign file) degrades to a miss
        with a warning — the sweep recomputes the cell.
        """
        path = self._path(key)
        try:
            with open(path) as fp:
                entry = json.load(fp)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
            warnings.warn(
                f"corrupt sweep-cache entry {path}: {e}; recomputing",
                RuntimeWarning, stacklevel=2,
            )
            return None
        if not isinstance(entry, dict) or not isinstance(
                entry.get("result"), dict):
            warnings.warn(
                f"malformed sweep-cache entry {path}; recomputing",
                RuntimeWarning, stacklevel=2,
            )
            return None
        return entry

    def put(self, key: str, entry: dict) -> None:
        """Atomically store ``entry`` under ``key``.

        Cross-process atomicity contract (every writer of
        ``objects/`` goes through here — audited; see
        ``tests/sweep/test_cache_atomicity.py``): the entry is fully
        serialized into a same-directory temp file, flushed and
        fsynced, and only then renamed over the final path with
        ``os.replace``.  A reader therefore observes either no entry,
        the previous complete entry, or the new complete entry — never
        a torn mix — and a crash mid-write can at worst strand a
        ``.tmp`` file, never a half-object under the final name.

        A failed write warns rather than raising: losing one cache
        entry must not lose the sweep that produced it.
        """
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fp:
                    json.dump(entry, fp)
                    fp.write("\n")
                    fp.flush()
                    # Without the fsync a crash after the rename could
                    # leave a durable *name* pointing at undurable
                    # *bytes* on some filesystems — exactly the torn
                    # object the tmp+rename dance exists to prevent.
                    os.fsync(fp.fileno())
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as e:
            warnings.warn(f"cannot write sweep-cache entry {path}: {e}",
                          RuntimeWarning, stacklevel=2)

    def __len__(self) -> int:
        objects = self.root / "objects"
        return sum(1 for _ in objects.glob("*/*.json"))
