"""A fixed unit of reference work that measures how fast the machine runs.

The VM this benchmark was built on (2 vCPUs of a 2.1 GHz Xeon) shares its
host with other machines, and its speed moves in phases of seconds to
minutes, on both vCPUs at once and with steal time near 0: the same solve
takes 1.5 s in one minute and 3.5 s in another. A 30-second run cannot
average such a phase out. Over 12 minutes of back-to-back
``multiwell_traced`` solves in one process, the median solve of each
30-s window spread 13-17% of their median between the quartiles.

A reference unit is fixed work, written here and calling nothing in
``steiner``, with the arithmetic mix of one descent step on 50 anchors in
2-D: the displacement x - a, distances, a sum, a gradient, a step and the
point formatted as text, so mostly interpreter and numpy dispatch, where
the solves spend most of their time. Run for a tenth of a solve's time,
its mean unit time over the nominal one is the machine's slowdown at that
moment. Each solve divided by the slowdown of a block run right after it,
then the median over each 30-s window, spread 4-5% over the same 12
minutes instead of 13-17%; on ``median_large_n``, 3% instead of 14%. That
is better than a unit on the workload's own 10 000 x 8 anchor array (4%),
so one unit serves every workload. run.py scales by the mean of the blocks
just before and just after a solve, which brought the ``median_large_n``
windows to 2%.

``NOMINAL_UNIT_S`` is a typical unit time on that VM; it only fixes the
scale, so a scaled time reads as seconds on a machine of that speed.
"""

import statistics
import time

import numpy as np

ANCHORS, DIMENSION, ITERATIONS = 50, 2, 1800
NOMINAL_UNIT_S = 0.033


class Reference:
    """Fixed reference work, timed to measure the machine's slowdown."""

    def __init__(self):
        rng = np.random.default_rng(20010105)
        self.anchors = rng.uniform(0.0, 10.0, size=(ANCHORS, DIMENSION))
        self.start = rng.uniform(0.0, 10.0, size=DIMENSION)

    def _work(self) -> float:
        x = self.start.copy()
        total = 0.0
        cells = []
        for _ in range(ITERATIONS):
            d = x - self.anchors
            r = np.sqrt((d * d).sum(axis=1))
            total += float(r.sum())
            g = (d / r[:, None]).sum(axis=0)
            x = x - 1e-6 * g
            cells.append(",".join(repr(float(c)) for c in x))
        return total + len(cells)

    def unit(self) -> float:
        """Run one unit and return its wall time in seconds."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def slowdown(self, seconds: float) -> float:
        """Run units for at least ``seconds`` (one at least) and return how
        much slower than nominal they ran: mean unit time / nominal unit time.

        The mean, not the median: the host switches between a fast and a slow
        state many times a second, and the mean weighs both as a solve does.
        """
        times = [self.unit()]
        while sum(times) < seconds:
            times.append(self.unit())
        return statistics.fmean(times) / NOMINAL_UNIT_S
