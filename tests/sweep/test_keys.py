"""Property tests for the content-addressed cache key.

The key must be a function of a config's *meaning*: invariant under
dict insertion order and float formatting, and changed by every
individual field mutation.  It is also a pure hash of a cell's
declared inputs: deriving it builds, compiles and certifies nothing.
"""

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.cpu.config import CoreConfig
from repro.isa.streams import ILP
from repro.mem.config import MemConfig
from repro.sweep import (
    app_cell,
    cache_key,
    canonical_json,
    canonicalize,
    pair_cell,
    stream_cell,
    table1_cell,
)
from repro.workloads.common import Variant

_keys = st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                max_size=12)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)
_configs = st.dictionaries(_keys, _values, min_size=1, max_size=6)


def _reorder(obj):
    """Same content, reversed dict insertion order at every level."""
    if isinstance(obj, dict):
        return dict(reversed([(k, _reorder(v)) for k, v in obj.items()]))
    if isinstance(obj, list):
        return [_reorder(v) for v in obj]
    return obj


def _reformat_numbers(obj):
    """Same numeric values through a different formatting path."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(repr(obj))
    if isinstance(obj, int) and abs(obj) < 2**53:
        return float(obj)           # 64 -> 64.0: a formatting accident
    if isinstance(obj, dict):
        return {k: _reformat_numbers(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_reformat_numbers(v) for v in obj]
    return obj


class TestKeyInvariance:
    @given(_configs)
    @settings(max_examples=150)
    def test_dict_ordering_is_irrelevant(self, cfg):
        assert cache_key(cfg) == cache_key(_reorder(cfg))

    @given(_configs)
    @settings(max_examples=150)
    def test_float_formatting_is_irrelevant(self, cfg):
        assert cache_key(cfg) == cache_key(_reformat_numbers(cfg))

    def test_json_text_formatting_is_irrelevant(self):
        a = json.loads('{"x": 2.00, "y": 0.750}')
        b = {"y": 0.75, "x": 2}
        assert cache_key(a) == cache_key(b)

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1.0, "a": [2.0, "x"]})
        assert text == '{"a":[2,"x"],"b":1}'


class TestKeySensitivity:
    @given(_configs)
    @settings(max_examples=150)
    def test_every_field_mutation_changes_key(self, cfg):
        base = cache_key(cfg)
        for field in cfg:
            mutated = dict(cfg)
            # Wrapping is guaranteed to change the canonical form, no
            # matter the original type or value.
            mutated[field] = ["mutated", cfg[field]]
            assert cache_key(mutated) != base, field

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_adjacent_integers_differ(self, n):
        assert cache_key({"v": n}) != cache_key({"v": n + 1})


class TestCanonicalization:
    def test_non_finite_floats_are_distinct(self):
        keys = {cache_key({"v": float("nan")}),
                cache_key({"v": float("inf")}),
                cache_key({"v": float("-inf")}),
                cache_key({"v": 0})}
        assert len(keys) == 4

    def test_bool_is_not_int(self):
        assert cache_key({"v": True}) != cache_key({"v": 1})

    def test_unhashable_types_rejected(self):
        with pytest.raises(TypeError):
            canonicalize({"v": object()})


class TestCellKeys:
    def test_stream_cell_fields_all_matter(self):
        base = stream_cell("iadd", ILP.MAX, 1, horizon_ticks=1000).key()
        assert stream_cell("fadd", ILP.MAX, 1, horizon_ticks=1000).key() != base
        assert stream_cell("iadd", ILP.MIN, 1, horizon_ticks=1000).key() != base
        assert stream_cell("iadd", ILP.MAX, 2, horizon_ticks=1000).key() != base
        assert stream_cell("iadd", ILP.MAX, 1, horizon_ticks=2000).key() != base

    def test_simulator_config_is_part_of_the_key(self):
        base = stream_cell("iadd", ILP.MAX, 1, horizon_ticks=1000)
        tweaked_core = stream_cell(
            "iadd", ILP.MAX, 1, horizon_ticks=1000,
            core_config=CoreConfig(issue_burst=8))
        tweaked_mem = stream_cell(
            "iadd", ILP.MAX, 1, horizon_ticks=1000,
            mem_config=MemConfig(prefetch_degree=4))
        assert len({base.key(), tweaked_core.key(), tweaked_mem.key()}) == 3

    def test_pair_cell_is_order_sensitive(self):
        ab = pair_cell("iadd", "fadd", ILP.MAX, horizon_ticks=1000).key()
        ba = pair_cell("fadd", "iadd", ILP.MAX, horizon_ticks=1000).key()
        assert ab != ba      # cpu0/cpu1 placement is part of the cell

    def test_app_cell_size_dict_order_is_irrelevant(self):
        a = app_cell("cg", Variant.SERIAL,
                     {"n": 224, "nnz_per_row": 40, "iterations": 3})
        b = app_cell("cg", Variant.SERIAL,
                     {"iterations": 3, "n": 224, "nnz_per_row": 40})
        assert a.key() == b.key()

    def test_distinct_cell_kinds_never_collide(self):
        assert (table1_cell("mm", "serial", {"n": 16}).key()
                != app_cell("mm", Variant.SERIAL, {"n": 16}).key())

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigError):
            stream_cell("bogus", ILP.MAX, 1)


class TestKeysFromDeclaredInputs:
    def test_key_derivation_builds_and_certifies_nothing(self,
                                                         monkeypatch):
        from repro.check import compose, recurrence
        from repro.workloads import WORKLOADS

        def forbidden(*args, **kwargs):
            raise AssertionError("key derivation must not build or "
                                 "certify a workload")

        for module in WORKLOADS.values():
            monkeypatch.setattr(module, "build", forbidden)
        monkeypatch.setattr(recurrence, "certify_tiled", forbidden)
        monkeypatch.setattr(compose, "compose_pair", forbidden)
        compose.cached_pair_certificate.cache_clear()
        assert app_cell("lu", Variant.SERIAL, {"n": 32}).key()
        assert pair_cell("fdiv", "fdiv", ILP.MAX).key()

    @pytest.mark.parametrize("module, constant", [
        ("repro.check.recurrence", "RECURRENCE_SCHEMA_VERSION"),
        ("repro.check.compose", "COMPOSE_SCHEMA_VERSION"),
    ])
    def test_certifier_schema_bump_changes_every_key(self, monkeypatch,
                                                     module, constant):
        import importlib

        cells = [stream_cell("iadd", ILP.MAX, 1, horizon_ticks=1000),
                 pair_cell("fdiv", "fdiv", ILP.MAX),
                 app_cell("lu", Variant.SERIAL, {"n": 32})]
        before = [c.key() for c in cells]
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, constant, getattr(mod, constant) + 1)
        after = [c.key() for c in cells]
        assert all(a != b for a, b in zip(before, after))


def _shipped_cells():
    """Every cell of every shipped target, plus the ablations' machine
    overrides."""
    from repro.core.apps import APP_SIZES, app_cells
    from repro.serve.targets import resolve_target

    cells = list(resolve_target({"target": "fig1"}).cells)
    for panel in ("a", "b", "c"):
        for ilp in ("min", "med", "max"):
            cells += resolve_target({"target": "fig2", "panel": panel,
                                     "ilp": ilp}).cells
    for app in sorted(APP_SIZES):
        cells += app_cells(app)
    cells += resolve_target({"target": "table1"}).cells
    cells += app_cells("mm", sizes=[{"n": 16}],
                       core_config=CoreConfig.unified_queues())
    cells += app_cells("mm", sizes=[{"n": 16}],
                       mem_config=MemConfig.no_prefetch())
    return cells


class TestMemoizedMachineForm:
    """``SweepCell.key`` stores the canonical machine part once per
    config value; every key stays ``cache_key(key_material())``."""

    def test_every_shipped_key_equals_the_material_hash(self):
        cells = _shipped_cells()
        keys = [cell.key() for cell in cells]
        assert keys == [cache_key(cell.key_material()) for cell in cells]

    def test_equal_machines_share_one_stored_form(self):
        from repro.sweep import cells as cells_mod

        stream_cell("iadd", ILP.MAX, 1, core_config=CoreConfig()).key()
        stored = len(cells_mod._MACHINE_TEXT)
        for core in (CoreConfig(), CoreConfig.paper_default(), None):
            stream_cell("fadd", ILP.MIN, 2, core_config=core).key()
        assert len(cells_mod._MACHINE_TEXT) == stored

    def test_core_config_mutated_after_its_first_key(self):
        from repro.cpu.config import OpTiming
        from repro.isa.opcodes import Op

        core = CoreConfig()
        cell = stream_cell("fadd", ILP.MAX, 1, horizon_ticks=1000,
                           core_config=core)
        default = cell.key()
        core.partitioned = False
        unified = cell.key()
        assert unified == cache_key(cell.key_material())
        assert unified != default
        assert unified == stream_cell(
            "fadd", ILP.MAX, 1, horizon_ticks=1000,
            core_config=CoreConfig.unified_queues()).key()
        core.timings[Op.FADD] = OpTiming(10, 2)
        retimed = cell.key()
        assert retimed == cache_key(cell.key_material())
        assert retimed not in (default, unified)

    def test_mem_config_override_gets_its_own_key(self):
        base = app_cell("lu", Variant.SERIAL, {"n": 16})
        override = app_cell("lu", Variant.SERIAL, {"n": 16},
                            mem_config=MemConfig.no_prefetch())
        assert override.key() == cache_key(override.key_material())
        assert override.key() != base.key()
        assert base.key() == app_cell("lu", Variant.SERIAL,
                                      {"n": 16}).key()

    def test_ambiguous_config_raises_on_every_call(self):
        from repro.sweep import SweepCell

        cell = SweepCell("stream-cpi", {1: "int", "1": "str"})
        for _ in range(2):
            with pytest.raises(ValueError, match="ambiguous"):
                cell.key()
        with pytest.raises(ValueError, match="ambiguous"):
            cache_key(cell.key_material())

    def test_default_machine_key_builds_no_config(self, monkeypatch):
        import repro.cpu.config as core_module
        import repro.mem.config as mem_module

        cell = stream_cell("iadd", ILP.MAX, 1, horizon_ticks=1000)
        first = cell.key()

        def forbidden(*args, **kwargs):
            raise AssertionError("a default-machine key built a config")

        monkeypatch.setattr(core_module, "CoreConfig", forbidden)
        monkeypatch.setattr(mem_module, "MemConfig", forbidden)
        assert cell.key() == first
