"""Scaling CPU times to a reference speed of the host.

The CPU time of the same code on the same input moved by up to 1.5 times
within minutes on a shared 2-core x86 VM, for numpy-bound and
interpreter-bound code together, with the load of the host. A run measures
that speed with a fixed *kernel* that does not use ``apd`` (an interpreter
loop, small-array numpy calls, dense matrix-vector products in and out of
cache, small Cholesky solves) right before and right after each timed call,
and scales the call's CPU time by ``REFERENCE_S`` over the mean of the two
kernel times. A change to ``apd`` leaves the kernel as it was, so it shows
in the scaled times in full.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median CPU time on one core of a 2-core x86 VM, so scaled
# times read as CPU seconds on that machine at its usual speed.
REFERENCE_S = 0.065

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((5, 5))
_BLOCKS = [_rng.standard_normal(5) for _ in range(400)]
_CACHED = _rng.standard_normal((400, 400))
_LARGE = _rng.standard_normal((1000, 1000))
_SPD = _rng.standard_normal((120, 120))
_SPD = _SPD @ _SPD.T + 120.0 * np.eye(120)


def kernel_seconds():
    """CPU seconds of one pass of the fixed kernel."""
    started = time.process_time()
    total = 0.0
    for i in range(120_000):
        total += i * 0.5
    acc = np.zeros(5)
    for _ in range(8):
        for block in _BLOCKS:
            acc += _SMALL @ block
    x = np.ones(400)
    for _ in range(400):
        x = _CACHED @ x
        x /= np.linalg.norm(x)
    y = np.ones(1000)
    for _ in range(50):
        y = _LARGE @ y
        y /= np.linalg.norm(y)
    for _ in range(24):
        np.linalg.cholesky(_SPD)
        np.linalg.solve(_SPD, x[:120])
    return time.process_time() - started


class Speed:
    """Scales consecutive timings by the kernel measured around each one.

    The kernel runs once when the object is made and once per ``scale``
    call, so every timing has a kernel time just before and just after it.
    Every kernel time is appended to ``log``.
    """

    def __init__(self, log, kernel=kernel_seconds):
        self.log = log
        self.kernel = kernel
        self.last = self._measure()

    def _measure(self):
        seconds = self.kernel()
        self.log.append(seconds)
        return seconds

    def scale(self, seconds):
        """``seconds`` just measured, at the reference speed."""
        before, self.last = self.last, self._measure()
        return seconds * REFERENCE_S * 2.0 / (before + self.last)
