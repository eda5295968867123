"""Run ``atlas serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT serve [serve flags...]``

The launcher installs the wrappers, calls the same ``atlas.cli.main``
entry point with the same flags the untraced server gets, and when the
server stops (SIGINT) removes the wrappers and writes its spans, boundary
counts and end-of-run backend state to TRACE_OUT.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out, serve_argv = Path(argv[0]), argv[1:]
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from atlas import cli

    tracer = Tracer()
    layers.install(tracer)
    try:
        code = cli.main(serve_argv)
    finally:
        not_restored = tracer.restore()
        tracer.write(trace_out, layers.server_extras(tracer) | {"wrappers_not_restored": not_restored})
    return code if not not_restored else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
