"""Atomicity contract of the on-disk object store.

Every writer of ``.repro-cache/objects/`` funnels through
``ResultCache.put`` (audited: ``git grep`` finds no other writer), and
``put`` promises temp-file + fsync + rename.  These tests inject torn
objects and mid-write crashes and check that readers only ever observe
no entry, the previous complete entry, or the new complete entry.
"""

import json
import os

import pytest

from repro.sweep.cache import ResultCache

ENTRY = {"cache_schema_version": 1, "kind": "stream-cpi",
         "config": {"stream": "iadd"}, "result": {"cpi": 1.0}}
KEY = "ab" + "0" * 62


def _final_path(cache, key=KEY):
    return cache.root / "objects" / key[:2] / f"{key}.json"


class TestTornObjects:
    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        """A torn object under the final name (simulating a pre-contract
        writer or disk corruption) is served as a miss, not garbage."""
        cache = ResultCache(tmp_path)
        cache.put(KEY, ENTRY)
        full = _final_path(cache).read_text()
        _final_path(cache).write_text(full[: len(full) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(KEY) is None

    def test_empty_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = _final_path(cache)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get(KEY) is None

    def test_wrong_shape_degrades_to_miss(self, tmp_path):
        """Valid JSON that is not an entry (e.g. a foreign file) is
        also a miss — `result` must be a dict."""
        cache = ResultCache(tmp_path)
        path = _final_path(cache)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert cache.get(KEY) is None

    def test_non_utf8_entry_degrades_to_miss(self, tmp_path):
        """An entry is read as bytes and decoded as UTF-8: bytes that
        do not decode are a corrupt entry, not an exception."""
        cache = ResultCache(tmp_path)
        path = _final_path(cache)
        path.parent.mkdir(parents=True)
        path.write_bytes(b'{"result": {"s": "\xff\xfe"}}')
        with pytest.warns(RuntimeWarning,
                          match="corrupt.*can't decode byte 0xff"):
            assert cache.get(KEY) is None

    def test_directory_at_entry_path_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        _final_path(cache).mkdir(parents=True)
        with pytest.warns(RuntimeWarning, match="corrupt.*Is a directory"):
            assert cache.get(KEY) is None

    @pytest.mark.parametrize("stored", [
        [ENTRY],
        {**ENTRY, "result": [1.0]},
        {**ENTRY, "result": None},
    ], ids=["top-level-list", "result-list", "result-null"])
    def test_entry_of_the_wrong_shape_degrades_to_miss(self, tmp_path,
                                                       stored):
        cache = ResultCache(tmp_path)
        path = _final_path(cache)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(stored))
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert cache.get(KEY) is None

    def test_non_ascii_utf8_entry_reads_back(self, tmp_path):
        """``put`` writes ASCII, but a UTF-8 entry is read whatever the
        locale's encoding."""
        cache = ResultCache(tmp_path)
        path = _final_path(cache)
        path.parent.mkdir(parents=True)
        entry = {**ENTRY, "config": {"stream": "iadd\u00e9"}}
        path.write_bytes(json.dumps(entry, ensure_ascii=False)
                         .encode("utf-8"))
        assert cache.get(KEY) == entry

    def test_put_writes_the_json_dumps_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, ENTRY)
        assert _final_path(cache).read_bytes() == \
            (json.dumps(ENTRY) + "\n").encode()
        assert len(cache) == 1

    def test_miss_then_overwrite_recovers(self, tmp_path):
        cache = ResultCache(tmp_path)
        _final_path(cache).parent.mkdir(parents=True)
        _final_path(cache).write_text("{torn")
        with pytest.warns(RuntimeWarning):
            assert cache.get(KEY) is None
        cache.put(KEY, ENTRY)
        assert cache.get(KEY) == ENTRY


class TestCrashInjection:
    def test_crash_before_rename_leaves_no_object(self, tmp_path,
                                                  monkeypatch):
        """Kill the writer after serialization but before the rename:
        no object may appear under the final name."""
        cache = ResultCache(tmp_path)

        def boom(src, dst):
            raise OSError("injected crash before rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.warns(RuntimeWarning, match="cannot write"):
            cache.put(KEY, ENTRY)
        monkeypatch.undo()
        assert not _final_path(cache).exists()
        assert cache.get(KEY) is None
        # The aborted temp file was cleaned up, not stranded.
        assert list(_final_path(cache).parent.glob("*.tmp")) == []

    def test_crash_mid_write_preserves_previous_entry(self, tmp_path,
                                                      monkeypatch):
        """A crash while writing the *new* entry (injected at the
        fsync, i.e. after serialization, before the rename) must leave
        the *previous* complete entry untouched."""
        cache = ResultCache(tmp_path)
        cache.put(KEY, ENTRY)

        def boom(fd):
            raise OSError("injected crash mid-write")

        monkeypatch.setattr(os, "fsync", boom)
        with pytest.warns(RuntimeWarning, match="cannot write"):
            cache.put(KEY, {**ENTRY, "result": {"cpi": 9.9}})
        monkeypatch.undo()
        assert cache.get(KEY) == ENTRY
        assert list(_final_path(cache).parent.glob("*.tmp")) == []

    def test_fsync_runs_before_rename(self, tmp_path, monkeypatch):
        """Order matters: the data must be durable before the name is.
        Record the sequence of fsync and replace calls."""
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (calls.append("replace"),
                          real_replace(a, b))[1])
        cache = ResultCache(tmp_path)
        cache.put(KEY, ENTRY)
        assert calls == ["fsync", "replace"]
        assert cache.get(KEY) == ENTRY


class TestWriterAudit:
    def test_put_is_the_only_objects_writer(self):
        """Static audit: nothing else in the package opens a path under
        ``objects/`` for writing — every producer goes through
        ``ResultCache.put`` and inherits its atomicity."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        offenders = []
        for py in src.rglob("*.py"):
            text = py.read_text()
            if "objects" not in text:
                continue
            for i, line in enumerate(text.splitlines(), 1):
                if re.search(r"objects.*(open\(|write_text|write_bytes)",
                             line) or \
                        re.search(r"(open\(|write_text|write_bytes).*"
                                  r"objects", line):
                    offenders.append(f"{py.name}:{i}: {line.strip()}")
        assert offenders == []
