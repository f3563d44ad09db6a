"""Measure one set-up: import agreebox and make a workload's first call.

Run in a fresh interpreter by run.py, which starts several and keeps the
median:  python3 -I perfbench/setup_probe.py <workload> <out dir>
Prints the seconds from before the import to after the first call.
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def main():
    workload = WORKLOADS[sys.argv[1]](Path(sys.argv[2]))
    start = perf_counter()
    workload.load()
    workload.warmup()
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
