"""Start ``repro serve`` with the benchmark's span wrappers installed.

::

    python3 perfbench/serve_launcher.py SPANS.json -- serve --port 0 ...

Installs :func:`tracing.serve_targets`, runs ``repro.cli.main`` with
the arguments after ``--``, and writes the recorded spans to
``SPANS.json`` when the daemon shuts down (SIGINT).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import repro.cli  # noqa: E402


def main(argv: list) -> int:
    spans_path, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: serve_launcher.py SPANS.json -- serve ...")
    tracer = tracing.Tracer()
    tracer.install(tracing.serve_targets())
    try:
        return repro.cli.main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
