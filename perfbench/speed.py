"""Machine-speed sampling, so operation times can be compared across runs.

On a shared machine the speed of one core drifts by tens of percent within
seconds, with no steal time visible to the guest and no hardware counters
to count work instead. A SpeedProbe runs a fixed reference kernel from a
SIGALRM handler every PERIOD_S seconds while an operation runs, so the
kernel sees the same mix of fast and slow periods as the operation. Each
tick runs the kernel twice and times only the second run, so the sample
does not depend on what the operation left in the caches. The operation's
own time (handler time taken out) divided by the harmonic mean of the
samples, times KERNEL_REF_S, is the operation time at reference speed. The
harmonic mean is the right average because the samples are spread evenly in
time, and work done per unit time is the inverse of a sample.

The kernel mixes the kinds of work the workloads do, since no single kind
tracks every workload's slowdowns: a small Lloyd step on a 60x50 matrix,
a product with a 60x2000 matrix, a distance step on a 200x200 matrix,
parsing numbers from text, a pure-Python integer loop and seeding random
generators.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# A fixed unit, the same for every commit: about the median kernel time run
# back to back on a 2-core Xeon VM at 2.1 GHz (Python 3.11, numpy 2.4, one
# BLAS thread). Sampled inside operations the kernel runs faster than that,
# so times at reference speed read higher than wall times there.
KERNEL_REF_S = 0.0011

_rng = np.random.Generator(np.random.PCG64(20150119))
_SMALL = _rng.standard_normal((60, 50))
_WIDE = _rng.standard_normal((60, 2000))
_WIDE_W = np.abs(_rng.standard_normal(2000))
_SQUARE = _rng.standard_normal((200, 200))
_TEXT = ",".join(f"{v:.17g}" for v in _rng.standard_normal(150))


def kernel() -> float:
    z = _SMALL
    c = z[:3].copy()
    for _ in range(3):
        d2 = (z * z).sum(1)[:, None] + (c * c).sum(1)[None, :] - 2.0 * z @ c.T
        labels = d2.argmin(1)
        for j in range(3):
            members = labels == j
            if np.any(members):
                c[j] = z[members].mean(0)
    wide = float(((_WIDE * _WIDE_W) @ _WIDE[:3].T).sum())
    square = (_SQUARE * _SQUARE).sum(1)[:, None] - 2.0 * _SQUARE @ _SQUARE[:2].T
    parsed = sum(float(tok) for tok in _TEXT.split(","))
    count = 0
    for i in range(2000):
        count += i * i
    for i in range(5):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([i, 1, 2])))
    return float(c.sum()) + wide + float(square.argmin(1).sum()) + parsed + count


class SpeedProbe:
    """Context manager sampling kernel times while an operation runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.handler_s += t2 - t0

    def __enter__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, seconds: float) -> float:
        """Operation time at reference speed; ``seconds`` includes the samples."""
        if not self.samples:
            # Too short to be sampled: time one kernel run right away.
            self._tick(None, None)
            return seconds * KERNEL_REF_S / self.samples[-1]
        own = seconds - self.handler_s
        return own * KERNEL_REF_S / statistics.harmonic_mean(self.samples)
