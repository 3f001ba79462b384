"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/probe.py <workload> <seed> <out_dir>``.
Prints the seconds from before the first library import to a built
workload (task and executor constructed, pool spun up) and the
calibration loop's time right after, then tears the workload down
outside the timed span.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import calibration
    import workloads

    workload = workloads.build(name, seed, out_dir)
    elapsed = time.perf_counter() - START
    loop = calibration.loop_seconds()
    workload.close()
    print(repr(elapsed), repr(loop))
    return 0


if __name__ == "__main__":
    sys.exit(main())
