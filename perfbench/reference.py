"""A fixed pure-Python loop that measures how fast the machine runs Python now.

The benchmark runs on a couple of cores of a shared host.  How fast they run
CPU-bound Python changes with the load the host's other tenants put on it,
by up to a third over a few minutes, and for the whole of such a spell:
even the fastest repeats of an op slow down with it.  No statistic inside a
30 s run removes a drift that slow.  So every run also times this loop,
which does the kind of work symplie does (Fraction arithmetic, dicts keyed
by tuples) but none of its code, in short probes spread over the run, and
every time metric is scaled by

    REFERENCE_ITER_S / (10th percentile of the loop's iteration times)

that is, to the machine speed at which the loop's fast iterations take
REFERENCE_ITER_S.  The loop shares nothing with ``src/``: a change to the
program moves the program's times and leaves the scale alone.  The scale and
the unscaled times are kept in every run record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# A typical 10th percentile of the iteration time on the 2-vCPU Intel Xeon VM
# the baseline in perfbench/README.md was recorded on (Python 3.11.7; it read
# 0.49-0.61 ms there in most runs).  Fixed: changing it rescales every time
# metric.
REFERENCE_ITER_S = 5.5e-4


def iteration() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i % 97, i % 89 + 1)
        table[(i, i % 7)] = acc
    return acc


class Reference:
    """Iteration times of the loop, gathered in probes over one run."""

    def __init__(self):
        self.times: list = []

    def probe(self, iterations: int) -> None:
        for _ in range(iterations):
            t0 = perf_counter()
            iteration()
            self.times.append(perf_counter() - t0)

    def scale(self) -> float:
        """REFERENCE_ITER_S over the 10th percentile of the iteration times."""
        ordered = sorted(self.times)
        return REFERENCE_ITER_S / ordered[len(ordered) // 10]
