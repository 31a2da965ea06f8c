"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from interpreter start-up to a constructed solver:
importing moso-kit (numpy, scipy, click), building the problem or
loading the config, and constructing ``MoopSolver``.  ``run.py`` starts
it with BLAS and OpenMP pinned to one thread, like the workload itself.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from recorder import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name].make_solver(seed, work, Recorder(traced=False))
    print(repr(time.perf_counter() - STARTED))


if __name__ == "__main__":
    main()
