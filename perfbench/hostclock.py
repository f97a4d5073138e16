"""A clock that follows the host's speed.

A virtual machine shared with other tenants can alternate between two
speeds some 1.8x apart for seconds at a time, and drift by as much over
minutes, so raw timings of the same work spread far more between runs than
any change worth measuring. :class:`HostClock` therefore times a fixed
kernel that does not touch ptmon every :data:`PERIOD_S` seconds, from a
``SIGALRM`` handler in the benchmark's own (only) thread, and keeps that
time out of :meth:`HostClock.now`. A timing taken over an interval is then
divided by the host's slowdown during it: the kernel's mean time over the
ticks inside the interval and the nearest tick on each side, as a multiple
of :data:`REFERENCE_S`. The kernel belongs to the benchmark, so no change
to ptmon moves it.
"""

from __future__ import annotations

import signal
import time
from collections import deque

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 1e-3

# Deque-based sliding minima in pure Python plus small numpy reductions:
# the mix of interpreter and numpy work that ptmon's hot paths have.
_REF_SERIES = [((i * 7919) % 1013) / 1013.0 for i in range(2000)]
_REF_ARRAY = np.linspace(0.0, 1.0, 64)


def reference_kernel() -> float:
    x, dq, acc = _REF_SERIES, deque(), 0.0
    for i, v in enumerate(x):
        while dq and x[dq[-1]] >= v:
            dq.pop()
        dq.append(i)
        if dq[0] <= i - 16:
            dq.popleft()
        acc += x[dq[0]]
    a = _REF_ARRAY
    for _ in range(100):
        acc += float(np.minimum(a, a[::-1]).max())
    return acc


class HostClock:
    def __init__(self):
        self.hidden = 0.0
        self.tick_at: list[float] = []
        self.tick_s: list[float] = []
        self._busy = False
        self._previous = None

    def now(self) -> float:
        """Wall time, less the time spent in ticks."""
        return time.perf_counter() - self.hidden

    def tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            at = self.now()
            t0 = time.perf_counter()
            reference_kernel()
            dt = time.perf_counter() - t0
            self.tick_at.append(at)
            self.tick_s.append(dt)
            self.hidden += dt
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous if self._previous is not None else signal.SIG_DFL)
        self.tick()

    def slowdown(self, start, end) -> np.ndarray:
        """Host slowdown over each interval ``[start[i], end[i]]`` of
        :meth:`now` times (at least one tick must have run)."""
        at = np.asarray(self.tick_at)
        total = np.concatenate([[0.0], np.cumsum(self.tick_s)])
        lo = np.clip(np.searchsorted(at, np.asarray(start)) - 1, 0, at.size - 1)
        hi = np.clip(np.searchsorted(at, np.asarray(end)), 0, at.size - 1)
        return (total[hi + 1] - total[lo]) / (hi + 1 - lo) / REFERENCE_S
