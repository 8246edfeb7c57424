"""Machine-speed sampling, so that reported times do not move with the host.

On a 2-core Xeon virtual machine whose cores are shared with other tenants,
the same single-threaded operation runs up to twice as slow for seconds at a
time.  A fixed reference kernel, owned by the benchmark, is timed every
``PERIOD_S`` of CPU time from a SIGPROF handler.  It mixes the three kinds of
work the package does: dict updates keyed by nested tuples (the exact
algebra), Python-level float arithmetic through function calls (enumeration),
and small numpy array operations (Monte Carlo).  An interval's scaled
duration is its wall time, minus the time spent in the handler, times the mean
of ``NOMINAL_S / kernel time`` over the samples in and around it: the seconds
the interval would have taken on a host where the kernel takes ``NOMINAL_S``.

Apart from one dict and the numpy arrays, the kernel allocates no objects the
cyclic garbage collector tracks, so the package's heap does not change how
long it takes.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 0.3e-3  # kernel time in the fast phases of the 2-core Xeon host
WINDOW_S = 0.25  # samples this close to an interval also describe its speed

_KEYS = tuple(
    (("abcdefghjklmsuvw"[i % 16], i % 4), ("suvw"[j % 4], j % 3), i * j)
    for i in range(32)
    for j in range(16)
)
_WEIGHTS = np.arange(8)


def _step(x: float, y: float) -> float:
    return x * 0.5 + y * y - 0.25


class SpeedMeter:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._rng = np.random.default_rng(0)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _kernel(self) -> float:
        acc: dict = {}
        for k in _KEYS:
            acc[k] = acc.get(k, 0) + k[2]
        x = 0.0
        for i in range(1000):
            x = _step(x, i * 1e-3) % 7.0
        u = self._rng.random((2048, 8))
        return len(acc) + x + float(((u < 0.3) @ _WEIGHTS).sum())

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        self._kernel()
        self.samples.append((t0, time.monotonic()))

    def scaled(self, a: float, b: float) -> float:
        """Seconds that [a, b] (time.monotonic readings) takes at nominal speed."""
        inside = sum(e - s for s, e in self.samples if a <= s and e <= b)
        near = [e - s for s, e in self.samples if a - WINDOW_S <= s <= b + WINDOW_S]
        if not near:
            raise RuntimeError("no speed sample near the interval")
        return (b - a - inside) * sum(NOMINAL_S / d for d in near) / len(near)

    def factor(self) -> float:
        """Mean nominal-to-measured speed ratio over the whole run."""
        return sum(NOMINAL_S / (e - s) for s, e in self.samples) / len(self.samples)
