"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes (other tenants on the same cores).  Every timed
sample is therefore taken next to this fixed pure-Python loop, and the
reported time is scaled to a reference host on which the loop takes
:data:`REFERENCE_SECONDS`::

    reported = measured * REFERENCE_SECONDS / loop_seconds

The loop uses no library code, so a change to the library moves the
reported time and leaves the calibration alone.  The raw host seconds
are recorded next to every scaled value.
"""

import os
import statistics
import time

#: Loop time on the reference host (about this loop's median on a
#: 2-vCPU x86-64 cloud guest running CPython 3.11).
REFERENCE_SECONDS = 0.020
#: Loop iterations and repeats per calibration.
ITERATIONS = 300_000
REPEATS = 3


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def loop_seconds() -> float:
    """The calibration loop's time right now: the mean over this
    process's CPUs of the loop's median time pinned to each, since the
    CPUs of a shared host slow down independently and a pool spreads
    its work over all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(_loop()
                                             for _ in range(REPEATS)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def scaled(host_seconds: float, loop: float) -> float:
    """``host_seconds`` as the reference host would measure them."""
    return host_seconds * REFERENCE_SECONDS / loop
