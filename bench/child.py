"""Run one ``ksbound`` command with the benchmark's tracer installed.

Usage: ``python3 bench/child.py <spans.json> <ksbound arguments...>``

Behaves like ``python -m ksbound <arguments>`` (same stdout, stderr and exit
code, tracebacks included) and additionally writes the recorded spans and
call counts to ``<spans.json>`` when the command ends.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    import ksbound.cli  # every ksbound module is loaded before the tracer wraps them
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = ksbound.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps({
            "spans": tracer.spans,
            "counts": tracer.counts,
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()
