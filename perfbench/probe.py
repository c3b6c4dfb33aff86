"""Set-up probe: a fresh interpreter imports qnav, builds one workload's inputs
and warms up. run.py times the whole process from outside as one setup_s sample.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

import workloads


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.setup(workloads.import_qnav(), name, seed, workdir)


if __name__ == "__main__":
    main()
