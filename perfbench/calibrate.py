"""Host-speed calibration for timings taken on a shared machine.

On a shared host each CPU runs the same Python code up to about 1.8 times
slower while a neighbour is busy, switching between a fast and a slow
state every few seconds.  Medians over passes cannot remove a state that
covers a whole item or a whole run.  So a worker runs a ``Sampler``: a
SIGALRM handler that times a fixed kernel every SAMPLE_EVERY_S, during
set-up and items alike.  An interval's time, less the sampler's own time
inside it, is scaled by REFERENCE_KERNEL_S over the mean kernel time of
the samples inside it (or of the two around it, for an interval shorter
than the period).  A timing then reads in seconds on the host at its
reference speed.  The kernel allocates tuples and updates a small dict,
the operations lemfact spends its time on, and it uses no lemfact code,
so no change to lemfact can change the scale.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

SAMPLE_EVERY_S = 0.02

# About the kernel time on the host the baseline was recorded on (2-CPU
# Intel Xeon, Python 3.11: 0.4 ms fast, 0.7 ms slow).  Any fixed value
# works: it only sets the unit.  Changing it rescales every recorded timing.
REFERENCE_KERNEL_S = 0.0005


def _kernel() -> int:
    table: dict = {}
    out = []
    for i in range(500):
        t = ((i * 7) % 11, i % 13, i % 5)
        table[t] = table.get(t, 0) + 1
        out.append(tuple((c + 1) % 5 for c in t))
    return len(out) + len(table)


class Sampler:
    """Context manager that samples the kernel's speed while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame):
        t = perf_counter()
        _kernel()
        self.starts.append(t)
        self.ends.append(perf_counter())

    def __enter__(self):
        _kernel()  # the first run in a fresh process is cold
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def reference_time(self, a: float, b: float) -> float:
        """The time from a to b, less the samples inside it, in reference
        seconds.  A sample never straddles a or b: the handler runs between
        bytecodes of the thread that reads the clock."""
        i, j = bisect_left(self.starts, a), bisect_right(self.ends, b)
        inside = range(i, j)
        busy = sum(self.ends[k] - self.starts[k] for k in inside)
        near = inside if j > i else [k for k in (i - 1, i) if 0 <= k < len(self.starts)]
        if not near:
            raise RuntimeError("no kernel sample near the interval")
        kernel = sum(self.ends[k] - self.starts[k] for k in near) / len(near)
        return (b - a - busy) * REFERENCE_KERNEL_S / kernel
