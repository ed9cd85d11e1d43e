"""A speed gauge that shares the benchmark's CPU, to take core speed out of its timings.

The cores of a shared host change speed by up to half from one second to
the next, as other tenants load them, so the same cold classification
takes anywhere from 6 to 10 CPU seconds.  The gauge is a second process
pinned to the benchmark's CPU.  It runs a fixed chunk of ``fractions``
arithmetic (the program's own kind of work, but none of its code) over
and over, at a low priority, and records what each chunk cost.  Because
the two processes take turns on one core, the gauge sees the speed the
benchmark ran at.  It takes about a tenth of the core, which the
benchmark's CPU time does not count.  ``Gauge.seconds`` turns the CPU
time of an interval into seconds on a core where one chunk costs
``REF_CHUNK_S``: CPU time times ``REF_CHUNK_S`` over the mean chunk cost
in that interval.

This holds for interpreted Python, which slows down as much as the gauge
does.  Code that spends its time in numpy slows down less, so its CPU time
is reported as it is.

Run as a script it is the gauge process: ``gauge.py CPU``.  It answers
each ``dump`` line on stdin with one line, ``start cost start cost ...``
for the chunks since the previous dump, and exits at end of input, so it
also ends when the benchmark dies.
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: One chunk's CPU cost on the reference core: about the fast speed of the
#: 2-core machine the benchmark was written on (Python 3.11.7).
REF_CHUNK_S = 0.0003
#: Chunks this far outside an interval still describe its speed.
MARGIN_S = 0.01
#: The gauge's niceness: it gets about a tenth of a core shared with the
#: benchmark.
NICE = 10

clock = time.perf_counter
cpu_clock = time.process_time


def chunk() -> Fraction:
    total = Fraction(0)
    for i in range(1, 110):
        total += Fraction(i % 7 + 1, i)
    return total


def serve(cpu: int) -> None:
    """The gauge process: time chunks until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    records: list[str] = []
    stdin = sys.stdin.buffer
    while True:
        t0 = clock()
        c0 = cpu_clock()
        chunk()
        records.append(f"{t0!r} {cpu_clock() - c0!r}")
        if select.select([stdin], [], [], 0)[0]:
            if not stdin.readline():
                return
            sys.stdout.write(" ".join(records) + "\n")
            sys.stdout.flush()
            records.clear()


class Gauge:
    """Pins the calling process to one CPU and starts the gauge beside it.

    Use it as a context manager: on exit the gauge process is stopped and
    waited for, and the caller's CPU affinity is restored.
    """

    def __init__(self):
        self.affinity = os.sched_getaffinity(0)
        self.cpu = min(self.affinity)
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.proc = None

    def __enter__(self):
        os.sched_setaffinity(0, {self.cpu})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self._collect()  # the first answer shows the gauge is running
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        os.sched_setaffinity(0, self.affinity)
        return False

    def _collect(self) -> None:
        self.proc.stdin.write("dump\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed gauge exited with status {self.proc.wait()}")
        values = [float(x) for x in line.split()]
        self.starts += values[0::2]
        self.costs += values[1::2]

    def seconds(self, cpu_s: float, t0: float, t1: float) -> float:
        """``cpu_s`` CPU seconds spent between clock readings ``t0`` and
        ``t1``, in seconds on the reference core."""
        while not self.starts or self.starts[-1] <= t1 + MARGIN_S:
            self._collect()  # each answer follows at least one more chunk
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        return cpu_s * REF_CHUNK_S / statistics.fmean(self.costs[lo:max(hi, lo + 1)])


if __name__ == "__main__":
    serve(int(sys.argv[1]))
