"""Host-speed sampler that scales wall times to a reference speed.

The benchmark runs on a few cores of a shared machine. Other tenants take
a share of the physical cores for seconds to minutes, and the benchmark's
code then runs up to twice as slowly (the guest sees no steal time; CPU
time equals wall time). A campaign's wall time then says as much about
the neighbours as about annosim.

While a ``HostSpeed`` is entered, a background thread times a tiny fixed
kernel every ``PERIOD_S`` seconds: an interpreted loop over dict and float
objects and a few NumPy calls on 8x3 arrays, the kinds of work whose cost
is interpreter and per-call overhead, as in most of a campaign. The kernel
holds the interpreter lock for its whole run of under a millisecond, so
its time follows the speed of the core it ran on. ``scaled`` gives an
interval's wall time times ``REFERENCE_S`` over the median kernel time
inside it: the time it would have taken with the host at the speed where
the kernel takes ``REFERENCE_S``.

On a 2-vCPU host with a second CPU-bound process running, the kernel's
median during a rand-st campaign correlated 0.92 with the campaign's wall
time, and scaling cut the campaign-to-campaign spread from 15% to 5% of
the mean. Without that process the correlation was about 0.45: slowdowns
that hit large working sets (scene loading, big arrays) more than small
ones are only partly seen, and scaling then removes little noise but adds
little either. The kernel is the benchmark's own code, so a change to
annosim moves scaled times as much as it moves wall times at a fixed host
speed. The sampler costs about 2% of the measured time on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.04
# Fewest kernel samples behind a scaled time; a shorter interval borrows
# the samples nearest to it.
MIN_SAMPLES = 5
# A round figure near the kernel's fastest samples on the 2-vCPU KVM guest
# (Intel Xeon, family 6 model 143) where the baseline was measured. It only
# sets the scale of scaled times; comparisons use their ratios.
REFERENCE_S = 0.0005


class HostSpeed:
    """Context manager that samples the host's speed on a background thread."""

    def __init__(self):
        self._keys = [f"k{i}" for i in range(100)]
        self._small = np.random.default_rng(20211227).standard_normal((8, 3))
        self._starts = []  # start of each kernel sample, perf_counter seconds
        self._times = []  # its duration
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def _kernel(self) -> float:
        table = {}
        for r in range(10):
            for i, key in enumerate(self._keys):
                table[key] = table.get(key, 0.0) + i * 0.5 + r
        a = self._small
        spread = 0.0
        for _ in range(10):
            spread += float(np.linalg.norm(a - a.mean(axis=0), axis=1).mean())
        return spread + table[self._keys[-1]]

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            self._kernel()
            # The start goes in last: a reader that sees it sees the time.
            self._times.append(time.perf_counter() - t0)
            self._starts.append(t0)

    def __enter__(self) -> HostSpeed:
        self._kernel()  # first call loads code and allocates; not a sample
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time of the samples taken in [start, end)."""
        n = len(self._starts)
        if n < MIN_SAMPLES:
            raise RuntimeError(f"host-speed sampler has only {n} samples")
        starts = self._starts[:n]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        while hi - lo < MIN_SAMPLES:  # widen towards the nearer neighbour
            if hi < n and (lo == 0 or starts[hi] - end < start - starts[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return statistics.median(self._times[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Wall time of [start, end) at the reference host speed."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)
