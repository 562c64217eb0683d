"""Work counts of a warm CLI sweep, pinned exactly.

A warm hit should cost a hash: the second run of the same sweep on one
cache builds no parser, serializes no machine config for its keys,
canonicalizes only each cell's own part of the key material, looks its
model bounds up without rehashing a config, and writes its report in
one ``write``.  Counts, unlike wall time, do not depend on the host, so
a regression that adds work to the warm path fails here, not in a noisy
timing.
"""

import argparse
import builtins
import io
import json
from collections import Counter

import pytest

from repro import cli
from repro.cpu.config import CoreConfig, OpTiming
from repro.mem.config import MemConfig
from repro.model import bounds as bounds_mod
from repro.observe import report as report_mod
from repro.serve.targets import resolve_target
from repro.sweep import SweepCell
from repro.sweep import keys as keys_mod


def _count(monkeypatch, counts, owner, name, label):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[label] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_warm_fig1_pays_only_for_hashes(tmp_path, monkeypatch):
    argv = ["fig1", "--streams", "iadd", "--no-telemetry",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0            # cold: fills cache and memos

    counts = Counter()
    _count(monkeypatch, counts, argparse.ArgumentParser, "add_argument",
           "add_argument")
    _count(monkeypatch, counts, CoreConfig, "to_dict", "core.to_dict")
    _count(monkeypatch, counts, MemConfig, "to_dict", "mem.to_dict")
    _count(monkeypatch, counts, keys_mod, "canonicalize", "canonicalize")
    _count(monkeypatch, counts, SweepCell, "key", "key")
    assert cli.main(argv) == 0
    # The configs' to_dict calls are the report's "config" section.
    assert counts == {"key": 6, "canonicalize": 6 * 11,
                      "core.to_dict": 1, "mem.to_dict": 1}

    counts.clear()
    cells = resolve_target({"target": "fig1", "streams": "iadd"}).cells
    for cell in cells:
        cell.key()
    assert counts == {"key": 6, "canonicalize": 6 * 11}


class _CountingWrites(io.StringIO):
    def __init__(self, counts):
        super().__init__()
        self.counts = counts

    def write(self, text):
        self.counts["write"] += 1
        return super().write(text)


def _counting_open(counts):
    """An ``open`` whose files count their ``write`` calls."""
    real_open = open

    class File:
        def __init__(self, *args, **kwargs):
            self.fp = real_open(*args, **kwargs)

        def write(self, text):
            counts["write"] += 1
            return self.fp.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fp.close()

    return File


@pytest.mark.parametrize("argv", [
    ["fig1", "--streams", "iadd"],
    ["fig2", "--panel", "c", "--ilp", "max"],
], ids=["fig1", "fig2c"])
def test_warm_op_rehashes_no_config_and_writes_once(tmp_path, monkeypatch,
                                                    argv):
    report = tmp_path / "report.json"
    argv = argv + ["--no-telemetry", "--cache-dir", str(tmp_path / "cache"),
                   "--report", str(report)]
    assert cli.main(argv) == 0            # cold: fills cache and memos
    cold = json.loads(report.read_text())

    counts = Counter()
    _count(monkeypatch, counts, bounds_mod, "config_key", "config_key")
    monkeypatch.setattr(report_mod, "open", _counting_open(counts),
                        raising=False)
    assert cli.main(argv) == 0
    assert (counts["config_key"], counts["write"]) == (0, 1)
    warm = report.read_text()
    assert warm == json.dumps(json.loads(warm), indent=2) + "\n"
    assert report_mod.strip_volatile(json.loads(warm)) == \
        report_mod.strip_volatile(cold)


@pytest.mark.parametrize("argv, imports", [
    (["fig1", "--streams", "iadd"], 10),
    (["fig2", "--panel", "c", "--ilp", "max"], 10),
], ids=["fig1", "fig2c"])
def test_warm_op_resolves_hashes_and_reads_once(tmp_path, monkeypatch,
                                                argv, imports):
    """Per warm op, telemetry on: the ``import`` statements are the
    CLI's own, none per cell; no config key is rehashed; no JSON encoder
    is built, for keys or telemetry lines; and every hit is one
    ``open``, plus one for the report."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    report = tmp_path / "report.json"
    argv = argv + ["--telemetry-dir", str(tmp_path / "telemetry"),
                   "--cache-dir", str(tmp_path / "cache"),
                   "--report", str(report)]
    assert cli.main(argv) == 0            # cold: fills cache and memos

    counts = Counter()
    _count(monkeypatch, counts, builtins, "__import__", "import")
    _count(monkeypatch, counts, builtins, "open", "open")
    _count(monkeypatch, counts, OpTiming, "__hash__", "OpTiming.__hash__")
    _count(monkeypatch, counts, json.JSONEncoder, "__init__", "encoder")
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert len(list((tmp_path / "telemetry").iterdir())) == 2
    hits = json.loads(report.read_text())["sweep"]["cache_hits"]
    assert hits > 0
    # A Counter compares a missing count as 0.
    assert counts == Counter({"import": imports, "OpTiming.__hash__": 0,
                              "encoder": 0, "open": hits + 1})


def test_write_report_to_a_stream_is_one_write():
    counts = Counter()
    out = _CountingWrites(counts)
    report = report_mod.build_report("x", [{"a": [1, 2.5, None]}] * 50)
    report_mod.write_report(report, out)
    assert counts == {"write": 1}
    assert out.getvalue() == json.dumps(report, indent=2)
