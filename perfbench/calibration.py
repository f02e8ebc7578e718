"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared machine the speed of a CPU drifts, by up to a factor of two
within minutes, as neighbours come and go. Every benchmark time drifts with
it, so run-to-run spread would hide any change to the program. The kernel
below uses numpy, scipy and plain Python, and no factorem code. It mixes the
three kinds of work the program does: many small scipy calls, dense linear
algebra on a 400 x 120 block, and float-to-text formatting. The benchmark
runs it between work items, outside every timed region, and reports each
timed interval at the reference speed: its measured length times REFERENCE_S
over the mean kernel time of the samples taken within WINDOW_S of it.
"""

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

REFERENCE_S = 0.02   # nominal kernel time that defines the reference speed
EVERY_S = 0.5        # wall time between kernel samples
WINDOW_S = 1.5       # samples this close to an interval describe its speed


class Calibration:
    """Kernel samples of one run, as (midpoint, seconds), and the
    speed factors they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((15, 15))
        self._small = small @ small.T + 15.0 * np.eye(15)
        self._rhs = rng.standard_normal((15, 3))
        self._block = rng.standard_normal((400, 120))
        self._floats = rng.standard_normal(6000)
        self.samples = []
        self._last = -math.inf

    def _kernel(self):
        for _ in range(200):
            chol = scipy.linalg.cholesky(self._small, lower=True)
            x = scipy.linalg.cho_solve((chol, True), self._rhs)
            float(np.sum(np.abs(x) / np.maximum(np.abs(x), 1e-8)))
        for _ in range(3):
            gram = self._block.T @ self._block + np.eye(120)
            chol = scipy.linalg.cholesky(gram, lower=True)
            scipy.linalg.solve_triangular(chol, self._block.T, lower=True)
        ",".join(repr(float(v)) for v in self._floats)

    def sample(self):
        t0 = perf_counter()
        self._kernel()
        self._last = perf_counter()
        self.samples.append(((t0 + self._last) / 2, self._last - t0))

    def maybe_sample(self):
        """Sample if EVERY_S has passed since the last sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, start, end) -> float:
        """Multiply a time measured over [start, end] by this to get it
        at the reference speed; with no sample near, all samples count."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near or [d for _, d in self.samples])

    def scaled(self, intervals) -> list:
        """Lengths of (start, end) intervals at the reference speed."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
