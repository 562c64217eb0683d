"""``indented_json`` writes exactly the bytes of ``json.dumps(obj, indent=2)``.

Every report file, ``--json`` print, served manifest and response body
goes through it, so any difference from ``json`` would change an output
byte.  Where ``json`` raises, it must raise the same exception type.
"""

import json
from collections import OrderedDict, defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.report import indented_json


class _List(list):
    pass


class _Dict(dict):
    pass


def _outcome(fn, obj):
    try:
        return "ok", fn(obj)
    except Exception as e:  # noqa: BLE001 - the type is the outcome
        return "raised", type(e)


def _same_as_json(obj):
    assert _outcome(indented_json, obj) == _outcome(
        lambda o: json.dumps(o, indent=2), obj)


_text = st.text(st.characters(exclude_categories=()), max_size=12) | \
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é", " ", "\ud800",
                     "😀", 'a"b\\c\nd\te'])
_floats = st.floats(allow_nan=True, allow_infinity=True,
                    allow_subnormal=True) | \
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, float("nan"),
                     float("inf"), float("-inf")])
_numpy = st.sampled_from([np.float64(1.5), np.float64("nan"),
                          np.float64(-0.0), np.int64(3), np.float32(0.25),
                          np.bool_(True)])
_scalars = (_text | st.integers() | _floats | st.booleans() | st.none()
            | _numpy)
_keys = _text | st.integers() | _floats | st.booleans() | st.none()


def _containers(children):
    lists = st.lists(children, max_size=4)
    dicts = st.dictionaries(_keys, children, max_size=4)
    return (lists
            | lists.map(tuple)
            | lists.map(_List)
            | dicts
            | dicts.map(_Dict)
            | dicts.map(OrderedDict)
            | dicts.map(lambda d: defaultdict(int, d)))


_documents = st.recursive(_scalars, _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_matches_json_dumps(obj):
    _same_as_json(obj)


@settings(max_examples=200, deadline=None)
@given(st.recursive(st.text(max_size=6) | st.integers() | st.floats()
                    | st.booleans() | st.none(),
                    lambda c: st.lists(c, max_size=4)
                    | st.dictionaries(st.text(max_size=6), c, max_size=4),
                    max_leaves=40))
def test_exact_documents_match_json_dumps(obj):
    """The fast path alone: documents of exact builtin types only."""
    assert indented_json(obj) == json.dumps(obj, indent=2)


class TestEdges:
    def test_empty_containers_and_scalars(self):
        for obj in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], "",
                    0, -0.0, None, True, False, float("nan")):
            _same_as_json(obj)

    def test_non_str_keys(self):
        _same_as_json({1: "a", 2.5: "b", True: "c", False: "d", None: "e",
                       float("-inf"): "f", -0.0: "g"})

    def test_unencodable_values_and_keys_raise_like_json(self):
        for obj in ({"x": object()}, [{1, 2}], {(1, 2): 3}, {b"k": 1},
                    [np.int64(1)], {"x": np.float32(1.0)}):
            got = _outcome(indented_json, obj)
            assert got[0] == "raised"
            _same_as_json(obj)

    def test_subclass_and_numpy_scalars_follow_json(self):
        _same_as_json({"x": np.float64(2.5), "y": [_List([1]), _Dict(a=1)]})
        _same_as_json(OrderedDict([("b", 1), ("a", 2)]))

    def test_cycle_raises_like_json(self):
        loop = []
        loop.append(loop)
        _same_as_json(loop)
        knot = {}
        knot["self"] = [knot]
        _same_as_json(knot)

    def test_deep_nesting_follows_json(self):
        deep = []
        for _ in range(3000):
            deep = [deep]
        _same_as_json(deep)
        shallow = []
        for _ in range(200):
            shallow = {"k": shallow}
        _same_as_json(shallow)
