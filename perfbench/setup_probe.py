"""Time one cold start of firewatch; run in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from before ``import firewatch`` until a 2-trial
``run_trials`` of the workload's scenario at 2 workers has returned: import,
config validation, layout building and pool start-up.
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import firewatch
    from workloads import WORKLOADS  # this directory is sys.path[0]

    name, seed = argv
    firewatch.run_trials(WORKLOADS[name].config(2, int(seed)), workers=2)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
