"""Time a fresh interpreter's ``import padlab`` plus one workload's fixtures.

Usage: python3 bench/setup_probe.py WORKLOAD    (prints the seconds taken)
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fixtures  # noqa: E402  (imports nothing of the package)

start = time.perf_counter()
import padlab  # noqa: E402,F401

fixtures.build(sys.argv[1])
print(repr(time.perf_counter() - start))
