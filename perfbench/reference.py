"""Fixed reference computations that gauge how fast the host runs right now.

On a shared host the same request can take half again as long from one
second to the next, because neighbours take cache, memory bandwidth and
core time. Each workload has a reference unit made of the kinds of work its
requests do, which slow down by the same share when the host does. The
units live in the benchmark, so no change to the library can move them. A
unit runs just before each timed request, every 50 ms during it and just
after it. The request's wall time, less the units run during it, divided
by the mean time of one unit gives its cost in reference units ("ref"). A
host slowdown stretches both and cancels out; a faster library lowers the
cost.
"""

import json
import signal
import statistics
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(20240217)
_SMALL = [m + m.T for m in _RNG.standard_normal((6, 3, 3))]
_MID = (lambda m: m @ m.T)(_RNG.standard_normal((64, 64)))
_FLOATS = _RNG.standard_normal((40, 8)).tolist()


def _small_eigh() -> float:
    s = 0.0
    for a in _SMALL:
        w, v = np.linalg.eigh(a)
        s += float(w[0]) + float((v.conj().T @ a @ v).trace()) + float(np.abs(a).max())
    return s


def _small_arrays() -> float:
    s = 0.0
    for _ in range(20):
        s += float(np.zeros((64, 64)).sum() + np.ones(100).dot(np.arange(100)))
    return s


def _matmul() -> float:
    s = 0.0
    for _ in range(10):
        s += float((_MID @ _MID)[0, 0])
    return s


def _json_indented() -> float:
    return len(json.dumps({"x": _FLOATS}, indent=2))  # as the CLI encodes reports


# Each workload's unit, chosen by how closely its time followed the
# workload's requests while the host's speed swung on a 2-vCPU Xeon VM.
UNITS = {
    # 3×3 eigenproblems and many small arrays, as at each grid point.
    "qutrit-sweep": (_small_eigh, _small_arrays),
    # Encoding the ≈25 MB report is most of a `fisher` call at n_s=64.
    "certify-ladder": (_json_indented,),
    # The MLE loop's small arrays and matrix products, plus one report.
    "mle-study": (_json_indented, _matmul, _small_arrays),
}


class Gauge:
    """The workload's reference unit before, during and after each timed call.

    A one-shot interval timer interrupts the call every ``interval_s``
    seconds; the SIGALRM handler runs one unit and arms the next shot, so
    handlers never nest. The speed sampled during a call of seconds tracks
    the host far better than units at its edges alone. Time spent in the
    handler is taken off the call's wall time. The handler runs between
    bytecodes of the main thread; interrupted system calls are retried by
    Python, so the library's results do not change.
    """

    def __init__(self, workload: str, interval_s: float = 0.05):
        self.parts = UNITS[workload]
        self.interval_s = interval_s
        self._samples: list = []
        self._in_handler = 0.0

    def unit(self) -> float:
        """Seconds that one reference unit takes now."""
        t0 = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t0

    def _tick(self, signum, frame):
        t = self.unit()
        self._samples.append(t)
        self._in_handler += t
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def measure(self, fn) -> tuple:
        """Run ``fn()`` between and under reference units.

        Returns ``(fn's result, wall seconds of fn without the units run
        during it, mean seconds of one unit before, during and after it)``.
        An exception from ``fn`` propagates.
        """
        self._samples = [self.unit()]
        self._in_handler = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)
        try:
            t0 = perf_counter()
            result = fn()
            wall = perf_counter() - t0 - self._in_handler
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(self.unit())
        return result, wall, statistics.fmean(self._samples)
