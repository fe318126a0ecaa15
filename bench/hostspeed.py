"""Host-speed calibration: tell the program's time from the neighbours'.

The 2-vCPU sandboxes this benchmark is sized for change speed under the
program: for seconds to minutes at a stretch the same search costs 1.1-1.5x
more, with CPU time inflating as much as wall time (slower execution, not
descheduling).  Identical runs of the same commit then differ by 10-35 %,
which no regression bound survives.

Two defences, both needed:

* every workload is rounds of identical work and a latency is an op's
  *fastest* execution over the rounds (``metrics.best_of_rounds``) — that
  removes interference shorter than a round;
* a run that is slow from start to finish is caught by this module: client
  threads time a small fixed kernel (numpy on short arrays plus Python
  object churn — the same diet as a search) between requests, and every
  reported time is divided by ``factor`` = this run's kernel time ÷ the
  kernel time of the quiet reference box.  Over 14 identical runs the
  best-of-rounds search median ranged over 34 % as measured and over 6 %
  after the division (run-level correlation with the kernel: 0.98).

Only where one thread does all the work (``engine_search``,
``engine_replay``, every ladder rung): the client samples between requests.
A kernel timed while the program's other threads and processes are busy
also measures the cache and memory pressure the *program* creates (1.3-1.4x
on ``thread_service``), and dividing by that would hide the program's own
cost; sampling at quiescent points instead gave factors that did not track
the run at all.  The multi-client workloads therefore report plain
measurements of their median round and carry wider bounds.

So a reported latency reads "milliseconds on the quiet reference host".
``bench.host_factor`` is the divisor that was applied and
``bench.raw_search_p50_ms`` the unscaled pooled median, so nothing is hidden.
The kernel is the benchmark's own code: no change to the program can move
it.
"""

from __future__ import annotations

import threading
import time
from typing import List

import numpy as np

#: Kernel time on the reference box (2 x Xeon 2.1 GHz vCPU, CPython 3.11,
#: numpy 2.4) when nothing else runs: 10th percentile over quiet runs.
REFERENCE_S = 255e-6
#: Seconds between samples taken by one client thread.
SAMPLE_PERIOD_S = 0.05


class HostSpeed:
    """Calibration samples of one run."""

    def __init__(self):
        self._array = np.random.default_rng(0).random(1000)
        self.samples: List[float] = []
        self._last = 0.0
        self._lock = threading.Lock()

    def _kernel(self) -> float:
        array = self._array
        started = time.perf_counter()
        for _repeat in range(20):
            unique = np.unique(array[:200])
            found = np.searchsorted(array, unique)
            joined = np.concatenate([unique, found])
            _floats = [float(v) for v in joined[:20]]
        return time.perf_counter() - started

    def tick(self) -> None:
        """Sample if a period has passed (called between requests)."""
        if time.perf_counter() - self._last < SAMPLE_PERIOD_S:
            return
        self.sample()

    def sample(self) -> None:
        if not self._lock.acquire(blocking=False):
            return  # another client is sampling
        try:
            self.samples.append(min(self._kernel(), self._kernel()))
            self._last = time.perf_counter()
        finally:
            self._lock.release()

    def factor(self, percentile: float = 10.0) -> float:
        """How much slower than the reference box the host ran: a
        percentile of the samples ÷ the reference.  The 10th for
        best-of-rounds latencies (which keep the quiet moments), the median
        for a total such as ``setup_s``."""
        if not self.samples:
            return 1.0
        return float(np.percentile(self.samples, percentile)) / REFERENCE_S
