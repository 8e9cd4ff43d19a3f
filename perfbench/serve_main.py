"""Run ``pearl-sim serve`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/serve_main.py SPANS.json serve [serve options]

The traced ``serve_hits`` run starts its server through this launcher:
it wraps the server-side entry points in ``spans.SERVER_TARGETS``, runs
the normal CLI, and writes the recorded spans to ``SPANS.json`` when
the server exits on SIGINT.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    spans_path = Path(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from spans import SERVER_TARGETS, Tracer

    from repro import cli

    # Server span ids live in their own range so they never collide
    # with the client's when the two lists are merged.
    tracer = Tracer(first_id=10**9)
    tracer.op = None
    tracer.install(SERVER_TARGETS)
    try:
        return cli.main(sys.argv[2:])
    finally:
        spans_path.write_text(json.dumps([span.to_dict() for span in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main())
