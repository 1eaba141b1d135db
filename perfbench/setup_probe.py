"""Print the seconds a fresh process needs to import sarasim, parse a
scenario file and construct its World.

Usage: python3 setup_probe.py SRC_DIR SCENARIO_CFG
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from sarasim.config import load_config  # noqa: E402
from sarasim.engine import World  # noqa: E402

World(load_config(sys.argv[2]))
print(time.perf_counter() - T0)
