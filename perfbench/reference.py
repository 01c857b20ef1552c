"""A speed gauge for the machine the benchmark runs on.

On a shared host the same code runs up to 1.7 times slower in some periods
than in others, in CPU time as in wall time, and the periods come and go on
scales from milliseconds to minutes. A run's raw timings then depend on how
much of it fell in slow periods. The gauge runs a fixed stdlib computation
(a sum of Fractions, the kind of arithmetic the exact workloads do) between
the measured operations, for a share of their time, so that its chunks sample
the machine's speed over the same periods as the operations. The end-to-end
times are divided by the gauge's factor: the mean time of a chunk over the
run, divided by NOMINAL_S. They read as seconds at a fixed reference speed,
and a program that gets twice as fast still reads half the time.

The chunk does not touch aqbernstein, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import os
import time
from fractions import Fraction

CHUNK_TERMS = 300
# Seconds one chunk takes at the reference speed; it sets the scale of the
# reported times, not their ratios between runs.
NOMINAL_S = 0.001
# Share of the measured time that the gauge runs for.
SHARE = 0.1
_EXPECTED = sum(Fraction(1, i) for i in range(1, CHUNK_TERMS))


def chunk() -> float:
    """Run one chunk with the garbage collector off and return its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, CHUNK_TERMS):
            total += Fraction(1, i)
        spent = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if total != _EXPECTED:
        raise RuntimeError("reference chunk computed a wrong sum")
    return spent


class Gauge:
    """Interleaves reference chunks with measured work, in proportion to it."""

    def __init__(self):
        self.seconds = 0.0
        self.chunks = 0

    def sample(self, work_s: float) -> None:
        """Run chunks for about SHARE times ``work_s`` seconds, at least one."""
        count = max(1, round(SHARE * work_s / NOMINAL_S))
        self.seconds += sum(chunk() for _ in range(count))
        self.chunks += count

    def factor(self) -> float:
        """How many times slower than the reference speed the machine ran."""
        return self.seconds / self.chunks / NOMINAL_S


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the gauge and
    a child interpreter run on the same one. Ignored where not supported."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
