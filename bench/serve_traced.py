"""Run ``repro serve`` with ``repro.obs`` tracing on, for the traced run.

Usage (arguments are those of ``python -m repro.cli``)::

    PYTHONPATH=src python bench/serve_traced.py serve --no-cache --port 0

SIGUSR1 pauses span recording and SIGUSR2 resumes it, so the load
generator can time alternating traced and untraced slices.  When the
server shuts down (SIGTERM), the last stdout line is ``BENCH-TRACE``
followed by a JSON object: the per-layer span summary
(:func:`layers.summarize`) and the metrics registry snapshot.
"""

from __future__ import annotations

import json
import signal
import sys

import layers

from repro import obs
from repro.cli import main as cli_main

PHASES = {"backend.compile": "setup", "backend.query_many": "query", "backend.query": "query"}


def main(argv=None) -> int:
    obs.enable()
    tracer = obs.get_tracer()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.disable())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.enable())
    code = cli_main(argv)
    summary = {
        "phases": layers.summarize(tracer.roots, lambda name: PHASES.get(name, "other")),
        "metrics": obs.snapshot(),
    }
    print("BENCH-TRACE " + json.dumps(summary), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
