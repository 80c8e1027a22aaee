"""One set-up sample: import ordstat in this fresh interpreter and warm its caches.

Usage: python3 perfbench/setup_probe.py WORKLOAD
Prints the seconds from just before the import to the end of the warm-up.
"""

import sys
import time
from pathlib import Path

import workloads


def set_up(workload: str) -> float:
    """Import ordstat (and its command line) and fill the score cache the workload needs."""
    start = time.perf_counter()
    import ordstat.cli  # noqa: F401
    from ordstat import ranktests

    for scheme, pool, precision in workloads.warm_keys(workload):
        ranktests.scheme_scores(ranktests.Component(scheme), pool, precision)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(repr(set_up(sys.argv[1])))
