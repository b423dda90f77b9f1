"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of the library plus the towers and contexts the
workload's jobs share; for cli-pinned it is the import of ``sumrank.cli``.
Prints the seconds it took.

    PYTHONPATH=src python3 perfbench/setup_probe.py acd-distance
"""

import sys
from time import perf_counter

from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    start = perf_counter()
    workload.setup()
    print(perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
