"""Set up one workload in a fresh interpreter, then exit.

``run.py`` times this whole process to measure ``setup_s``: interpreter
start, ``import dualgeo`` and building the workload's generated inputs.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys

import program

program.load()

from workloads import WORKLOADS  # noqa: E402  (needs the sources on sys.path)

name, seed = sys.argv[1], int(sys.argv[2])
workload = WORKLOADS[name](seed, program.workdir(name, f"probe{os.getpid()}"))
workload.close()
