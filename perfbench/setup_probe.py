"""Set-up of one benchmark run in a fresh interpreter: import hopfdiag and
build the workload's inputs, then exit.  run.py times this process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads

name, seed = sys.argv[1], int(sys.argv[2])
make_inputs = workloads.WORKLOADS[name][0]
make_inputs(seed, workloads.SIZES[name])
