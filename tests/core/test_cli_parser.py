"""The CLI parser is built once per process and reused by every call.

``import repro.cli`` must build no parser (start-up time is measured on
a bare import), and one parser instance must serve every ``main`` call
without carrying state from one call into the next.
"""

import argparse
import subprocess
import sys

import pytest

from repro import cli

_COUNT_ON_IMPORT = """
import argparse
calls = 0
add = argparse.ArgumentParser.add_argument
def counting(self, *args, **kwargs):
    global calls
    calls += 1
    return add(self, *args, **kwargs)
argparse.ArgumentParser.add_argument = counting
import repro.cli
print(calls, repro.cli._parser.cache_info().currsize)
"""


def test_import_builds_no_parser():
    out = subprocess.run([sys.executable, "-c", _COUNT_ON_IMPORT],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("flagged, bad, plain", [
    (["fig1", "--streams", "iadd", "--fresh", "--no-telemetry",
      "--jobs", "2", "--no-cache", "--no-check", "--no-fastpath",
      "--cache-dir", "c", "--telemetry-dir", "t", "--json",
      "--report", "r.json"],
     ["fig1", "--jobs", "zero"],
     ["fig1"]),
    (["app", "lu", "--variant", "serial", "--size", "16", "--check",
      "--trace", "t.json", "--trace-limit", "5", "--fresh"],
     ["app", "lu", "--trace-limit", "0"],
     ["app", "lu"]),
])
def test_one_parser_serves_every_call(monkeypatch, capsys, flagged, bad,
                                      plain):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(args) or 0)
    assert cli.main(flagged) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    assert exc.value.code == 2
    assert cli.main(plain) == 0
    assert cli._parser.cache_info().currsize == 1
    fresh = cli._parser.__wrapped__().parse_args(plain)
    assert vars(seen[-1]) == vars(fresh)
    assert vars(seen[0]) != vars(fresh)


def _actions(parser: argparse.ArgumentParser):
    for action in parser._actions:
        yield action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


def test_no_default_is_a_mutable_container():
    parser = cli._parser()
    for action in _actions(parser):
        for value in (action.default, action.const):
            assert not isinstance(value, (list, dict, set)), action.dest
