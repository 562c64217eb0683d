"""Work counts of a warm CLI sweep, pinned exactly.

A warm hit should cost a hash: the second run of the same sweep on one
cache builds no parser, serializes no machine config for its keys, and
canonicalizes only each cell's own part of the key material.  Counts,
unlike wall time, do not depend on the host, so a regression that adds
work to the warm path fails here, not in a noisy timing.
"""

import argparse
from collections import Counter

from repro import cli
from repro.cpu.config import CoreConfig
from repro.mem.config import MemConfig
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
