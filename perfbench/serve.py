"""Run ``repro serve`` under the span wrappers (traced service passes).

Usage: ``python perfbench/serve.py --out OUT.json serve [serve args]``
(with ``src`` on ``PYTHONPATH``).  The server behaves exactly like
``python -m repro serve`` while ``spans.py`` records its layer spans.  On
shutdown (SIGTERM drains it) it writes ``{"totals": ...}`` to ``OUT.json``.
Untraced passes start ``python -m repro serve`` directly.
"""

# A terminal program: what it prints is the benchmark's report.
# ruff: noqa: T201

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Instrumentation, SpanLog, totals  # noqa: E402


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--out":
        print(__doc__, file=sys.stderr)
        return 2
    out, serve_args = argv[1], argv[2:]
    from repro.cli import main as repro_main

    log = SpanLog()
    with Instrumentation(log, extra_modules=("repro.service",)):
        code = repro_main(serve_args)
    with open(out, "w", encoding="utf8") as handle:
        json.dump({"totals": totals(log)}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
