"""Child process behind setup_s: start, import the library, build the inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints the CLOCK_MONOTONIC time at which it is ready to run the workload;
run.py subtracts the time at which it started this process.
"""

import sys
import time

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
