"""The per-µop modules read enum members from module constants.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so a load
such as ``Op.ILOAD`` inside a function goes through a Python-level slot
on every use (``cpu/core.py``, "Per-µop interpreter cost").  The modules
a stepped µop passes through bind each member they use once at import,
as ``_ILOAD = Op.ILOAD``.  This test walks their function bodies and
fails on any ``Op.<NAME>``, ``ThreadState.<NAME>`` or ``Event.<NAME>``
load, so that the rule cannot be undone silently.  Module-level code
and default argument values run once and are not checked.
"""

import ast
from pathlib import Path

import pytest

import repro

ENUMS = frozenset({"Op", "ThreadState", "Event"})

MODULES = (
    "cpu/core.py",
    "cpu/thread.py",
    "mem/hierarchy.py",
    "isa/instr.py",
    "isa/streams.py",
    "runtime/sync.py",
    "workloads/common.py",
    "workloads/lu.py",
    "workloads/matmul.py",
    "workloads/cg.py",
    "workloads/bt.py",
)

_SRC = Path(repro.__file__).parent


def enum_loads_in_functions(source: str) -> list[str]:
    """``line: Enum.NAME`` for each enum member load in a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        elif isinstance(node, ast.Lambda):
            body = [node.body]
        else:
            continue
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id in ENUMS):
                    found.append(f"{sub.lineno}: {sub.value.id}.{sub.attr}")
    return sorted(set(found), key=lambda s: int(s.split(":")[0]))


@pytest.mark.parametrize("module", MODULES)
def test_no_enum_member_load_in_a_function(module):
    loads = enum_loads_in_functions((_SRC / module).read_text())
    assert not loads, (
        f"{module} loads enum members inside functions; bind each once "
        f"at import (e.g. _ILOAD = Op.ILOAD): {loads}")


class TestDetector:
    def test_flags_loads_in_nested_and_lambda_bodies(self):
        source = (
            "def f(op):\n"
            "    def g():\n"
            "        return op is Op.ILOAD\n"
            "    h = lambda s: s is ThreadState.DONE\n"
            "    return g, h, mon[Event.IPI_SENT]\n"
        )
        assert enum_loads_in_functions(source) == [
            "3: Op.ILOAD", "4: ThreadState.DONE", "5: Event.IPI_SENT"]

    def test_module_level_and_defaults_are_allowed(self):
        source = (
            "_ILOAD = Op.ILOAD\n"
            "ROUTES = {Op.NOP: ('alu0',)}\n"
            "def load(op=Op.FLOAD):\n"
            "    return op is _ILOAD or op is Variant.SERIAL\n"
        )
        assert enum_loads_in_functions(source) == []
