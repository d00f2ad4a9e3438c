"""Set-up probe, run by run.py in a fresh interpreter.

Usage: python3 bench/cold_start.py WORKLOAD SEED WORKDIR

Prints the seconds from before ``import geodesy`` to the end of the
workload's first step, which also fills the package's cached reference
tables, and the seconds refspeed's interpreter kernel took around them.
"""

import os
import sys
from time import perf_counter

import refspeed


def interpreter_speed():
    return sorted(refspeed.interpreter_seconds() for _ in range(5))[2]


before = interpreter_speed()
start = perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402  (the import is what this probe times)

wl = WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
wl.finish(wl.y0, 1, wl.op(wl.y0, 1))
elapsed = perf_counter() - start
print(elapsed, (before + interpreter_speed()) / 2.0)
