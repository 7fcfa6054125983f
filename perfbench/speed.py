"""Machine-speed calibration for the benchmark's time metrics.

The benchmark shares its processor with other work, and the speed it
gets moves between two levels about 1.6x apart, for tens of seconds at
a time on some days and within a tenth of a second on others (the same
pure-Python loop, timed back to back, shows it in process time as well
as wall time).  Time metrics are therefore reported in reference
seconds.  A request time is multiplied by REFERENCE_S / c, where c is
the mean time of `kernel()` over the seconds around it in the same run.
`kernel` is fixed benchmark code that does the kind of work cwbrauer
does (integer elimination on lists, dicts, string formatting, small
integer matrix products on nested lists), so a change to cwbrauer moves
the reported numbers and a change in machine speed largely does not.
The kernel uses no third-party module, so the workload process holds
only what cwbrauer itself imports.  Set-up time is scaled the same way
by `import_kernel()`, a child process of its own.  Raw times are printed
beside them.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

# What kernel() takes on the faster of the two speed levels seen on the
# 2-core machine the benchmark was tuned on (Python 3.11).
REFERENCE_S = 0.004


def kernel() -> float:
    """Seconds taken by a fixed mix of integer, list, dict and str
    work."""
    t0 = time.perf_counter()
    acc = 1
    rows = [[(i * 7919 + j * 104729) % 211 - 105 for j in range(16)]
            for i in range(16)]
    for k in range(16):
        p = rows[k][k] or 1
        for i in range(16):
            q = rows[i][k] // p
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
        acc = acc * 3 + sum(map(abs, rows[k]))
    table = {}
    for k in range(8000):
        table[k % 257] = f"{k}:{acc % 1000003}"
    acc ^= len("".join(table.values()))
    a = [[(i * 31 + j * 17) % 23 - 11 for j in range(12)]
         for i in range(12)]
    for _ in range(6):
        b = [[sum(x * y for x, y in zip(row, col)) for col in a]
             for row in a]
        acc += sum(map(sum, b))
        a = [[x % 97 - 48 for x in row] for row in b]
    for k in range(400):
        one = [[k]]
        acc += all(x == 0 for row in one for x in row)
    return time.perf_counter() - t0 if acc >= 0 else 0.0


# About what import_kernel() takes on the faster speed level of the same
# machine.
REFERENCE_IMPORT_S = 0.25
REFERENCE_IMPORTS = ("import numpy, json, decimal, fractions, argparse, "
                     "email.message, http.client, xml.etree.ElementTree, "
                     "unittest, asyncio, logging, dataclasses, typing")


def import_kernel() -> float:
    """Wall seconds for a fresh interpreter to import a fixed set of
    modules: the reference for set-up time.

    Process start and module import slow down together, and differently
    from the in-process kernel(): they read files, map shared libraries
    and start threads.  On the machine the benchmark was tuned on,
    importing numpy (large shared libraries and a thread pool) slowed by
    36% from one period to the next while standard-library imports
    slowed by 14%, so the reference holds both kinds, about half each.
    It is a fixed reference, not part of any figure: set-up probes import
    only cwbrauer.cli, so if cwbrauer stops importing numpy the saving
    shows one for one."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True,
                   capture_output=True, timeout=30)
    return time.perf_counter() - t0
class Calibration:
    """Kernel timings taken during a run, each with the clock reading at
    which it was taken.

    The speed can switch between its levels within a tenth of a second,
    so a request's time follows the mean speed over its span, not the
    speed of any one instant: scales use the mean kernel time over a
    window of seconds, and every kernel run counts (the fastest of a few
    would track the faster level only)."""

    EVERY_S = 0.5   # at most one sample per this many seconds
    REPEAT = 3      # a sample is the mean of this many kernel runs
    WINDOW_S = 3.0  # scale() averages the samples this close to a time

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self._next = 0.0

    def sample(self, force: bool = False):
        now = time.perf_counter()
        if force or now >= self._next:
            self.times.append(now)
            self.values.append(
                statistics.fmean(kernel() for _ in range(self.REPEAT)))
            self._next = time.perf_counter() + self.EVERY_S

    def scale(self, at: float) -> float:
        """REFERENCE_S / (mean kernel time of the samples within WINDOW_S
        of `at`, or of the sample nearest it)."""
        lo = bisect.bisect_left(self.times, at - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, at + self.WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.values[lo:hi])

    def mean(self) -> float:
        return statistics.fmean(self.values)
