"""Wall time scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds, so a raw wall time mostly measures the
neighbours.  `HostClock` times a block of code and, while it runs, samples
the host's speed: after every ``SAMPLE_INTERVAL_S`` of the process's CPU
time a SIGVTALRM handler runs `ref_loop`, a fixed piece of interpreter work
of the kind psdrank does (small ints, Fractions, dicts, tuples, str
formatting), and records how long it took.  The block's time, minus the time spent in the
handler, is then scaled by ``REF_LOOP_S / mean(samples)``: it is the block's
wall time on a host on which `ref_loop` takes ``REF_LOOP_S``.  A slower
program still reads slower; a slower host reads the same.

The cyclic garbage collector is off during a sample, so a collection of the
program's heap never lands in it.  The timed block must not use SIGVTALRM
or ITIMER_VIRTUAL itself.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List

# ref_loop's time on the host the figures are stated for (about its median
# on a 2-vCPU Xeon VM).
REF_LOOP_S = 0.001
SAMPLE_INTERVAL_S = 0.02


def ref_loop() -> int:
    """About a millisecond of mixed interpreter work; deterministic."""
    counts = {}
    total = Fraction(0)
    parts = []
    for i in range(150):
        counts[(i * 31) % 97] = counts.get((i * 31) % 97, 0) + i * i
        total += Fraction(i % 17 + 1, i % 13 + 2)
        parts.append(f"{i}:{i * i}")
    rows = [tuple(range(j % 5)) for j in range(1000)]
    return len(" ".join(parts)) + len(rows) + len(counts) + total.denominator % 7


class HostClock:
    """``with HostClock() as clock: ...`` then read ``clock.raw_s`` (wall
    time minus sampling) and ``clock.scaled_s`` (the same at reference speed)."""

    def __init__(self):
        self.samples: List[float] = []
        self.paused = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            ref_loop()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
            self.paused += time.perf_counter() - enter

    def __enter__(self) -> "HostClock":
        self._sample()
        self.paused = 0.0  # that sample ran before the block
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        paused = self.paused
        self._sample()
        self.raw_s = end - self._start - paused
        self.scaled_s = self.raw_s * REF_LOOP_S / self.speed_s()

    def speed_s(self) -> float:
        """Mean time of one `ref_loop` over the block's samples."""
        return statistics.fmean(self.samples)
