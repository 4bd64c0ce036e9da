"""Launch ``repro server`` with the benchmark's span wrappers installed.

Usage::

    python benchmarks/e2e/e2e_server.py [--trace-out FILE] -- ARTIFACT [server options]

Without ``--trace-out`` this is exactly ``python -m repro server ...``.  With
it, the wrappers of :data:`e2e_tracing.TARGETS` go in before the server
starts, and the spans are written as Chrome trace JSON when the server
returns (SIGINT drains it and ``repro.cli.main`` returns 0).
"""

from __future__ import annotations

import sys
from pathlib import Path

import e2e_tracing


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(["server", *argv])
    tracer = e2e_tracing.make_tracer()
    installation = e2e_tracing.install(e2e_tracing.TARGETS, tracer)
    try:
        return cli_main(["server", *argv])
    finally:
        installation.restore()
        tracer.write_chrome(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
