"""Set-up of one in-process workload in a fresh interpreter: import
crnbalance and generate the workload's networks and kinetics.

``python3 bench/setup_probe.py WORKLOAD`` with ``PYTHONPATH=src``; the
benchmark times the whole process from the outside.
"""

import sys

import suite

if __name__ == "__main__":
    suite.build(sys.argv[1])
