"""Make the benchmark's modules and the program importable in its tests.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

for path in (PERFBENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
