"""One traced `emdkit` command: the CLI entry point with spans installed.

    python3 perfbench/traced_cli.py TRACE_OUT ARGS...

Imports ``emdkit.cli`` as the console script does, installs the spans, runs
``main(ARGS)`` in this process and, after it returns, writes the span
summary and the spans to TRACE_OUT.  The exit code is ``main``'s.
"""

from __future__ import annotations

import json
import sys

import emdkit.cli
from tracing import Tracer


def run(trace_out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = emdkit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
