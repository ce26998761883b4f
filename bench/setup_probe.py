"""Do a workload's set-up in a fresh process, as `run.py` does before its
first op, and print the wall-clock time at which it was ready.

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import workloads

workloads.load(sys.argv[1], int(sys.argv[2]))
print(repr(time.time()))
