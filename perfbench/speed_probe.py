"""Sample how fast the CPU runs, from beside the ops on that same CPU.

Usage::

    python3 perfbench/speed_probe.py LOG

Every ``PERIOD_S`` the probe wakes, times a fixed pure-Python loop, and
appends ``<start> <seconds>`` to ``LOG``; the start is a
``time.perf_counter()`` reading, which on Linux is the system-wide
monotonic clock, so the harness can match samples to op windows.  It
runs until terminated.

The harness pins itself, the ops and this probe to one CPU.  The probe
then shares the ops' time slices: when a noisy neighbour slows that CPU,
the probe's loop slows by the same factor at the same moment.  Asleep
between samples, it takes about 2% of the CPU.
"""

from __future__ import annotations

import sys
import time

PERIOD_S = 0.02
KERNEL_ITERATIONS = 10_000


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i
    return total


def main(log_path: str) -> None:
    with open(log_path, "w", buffering=1, encoding="utf-8") as log:
        while True:
            time.sleep(PERIOD_S)
            started = time.perf_counter()
            kernel()
            log.write(f"{started} {time.perf_counter() - started}\n")


if __name__ == "__main__":
    main(sys.argv[1])
