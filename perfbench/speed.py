"""In-process CPU speed probe, for timings that hold still on a shared host.

On a machine whose cores are shared with other tenants, the speed of a
vCPU drifts by up to 2x over seconds to minutes, and wall times drift
with it.  The probe runs a fixed kernel in a background thread every
INTERVAL_S and records the thread CPU time it took.  The worker pins
itself, and so the probe, to one CPU, so the samples show the speed of
the CPU the jobs run on at the moments they run.

A time measured over [t0, t1] is reported in reference seconds: wall
seconds times k_ref / (mean kernel cost over [t0, t1]), i.e. the time
the same work would take on a CPU that runs the kernel in k_ref.  Wall
times are kept next to them in the result files.

Two kernels: small-array NumPy calls from a Python loop, whose cost
tracks the package's own (small arrays driven from Python), for the
passes; and a pure-Python loop for set-up, which runs before NumPy is
imported.  Their k_ref is about their unloaded cost on the 2-core
development container (Python 3.11, NumPy 2.4).
"""

import threading
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

INTERVAL_S = 0.01
# windows with fewer samples borrow the ones nearest in time
MIN_SAMPLES = 8


def _python_kernel():
    def kernel():
        acc = 0
        for i in range(3000):
            acc += i * i
        return acc
    return kernel


def _numpy_kernel():
    import numpy as np
    m = np.arange(36.0).reshape(6, 6) / 36.0
    v = np.linspace(0.0, 1.0, 16)

    def kernel():
        acc = 0.0
        for _ in range(60):
            acc += float(np.exp(-v).sum()) + (m @ m)[0, 0]
        return acc
    return kernel


# name: (kernel factory, k_ref in seconds)
KERNELS = {"python": (_python_kernel, 2.0e-4), "numpy": (_numpy_kernel, 3.5e-4)}


class SpeedProbe:
    def __init__(self, kind):
        factory, self.k_ref = KERNELS[kind]
        self._kernel = factory()
        self.stamps = array("d")
        self.costs = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.is_set():
            c0 = thread_time()
            self._kernel()
            # costs first: a reader that copies stamps never outruns costs
            self.costs.append(thread_time() - c0)
            self.stamps.append(perf_counter())
            self._stop.wait(INTERVAL_S)

    def factor(self, t0, t1):
        """k_ref over the mean kernel cost sampled in [t0, t1]."""
        stamps = self.stamps[:]
        lo, hi = bisect_left(stamps, t0), bisect_right(stamps, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(stamps, 0.5 * (t0 + t1))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(stamps) - MIN_SAMPLES))
            hi = min(len(stamps), lo + MIN_SAMPLES)
        window = self.costs[lo:hi]
        if not window:
            raise RuntimeError("speed probe took no samples")
        return self.k_ref * len(window) / sum(window)
