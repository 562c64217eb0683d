"""The benchmark's external tracer still finds every function it wraps.

``perfbench/tracing.py`` rebinds program functions by attribute name,
so renaming one (``build_report``, ``manifest_bytes``, a model section,
...) would crash a traced benchmark run with a ``KeyError``.  This test
fails on such a rename instead, and checks that installing and then
uninstalling the tracer leaves every ``repro`` module as it was.  The
tracer module is loaded from its file and never modified.
"""

import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).parents[2] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The two target lists a benchmark run installs, one at a time.
SIDES = ("cli_targets", "serve_targets")


@pytest.mark.parametrize("side", SIDES)
def test_every_target_names_an_attribute_of_its_owner(tracing, side):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr, _, _ in getattr(tracing, side)()
               if attr not in owner.__dict__]
    assert not missing


def _snapshot():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if module is not None
            and (name == "repro" or name.startswith("repro."))}


@pytest.mark.parametrize("side", SIDES)
def test_install_then_uninstall_restores_every_binding(tracing, side):
    targets = getattr(tracing, side)()  # imports every traced module
    owners = {(owner, attr): owner.__dict__[attr]
              for _, owner, attr, _, _ in targets}
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        wrapped = [key for key, original in owners.items()
                   if key[0].__dict__[key[1]] is not original]
        assert len(wrapped) == len(owners)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [f"{name}.{key}" for name, names in before.items()
               for key, value in names.items()
               if after[name].get(key, object()) is not value]
    assert not changed
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in owners.items())
