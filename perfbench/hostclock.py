"""Host-speed-normalised timing: a reference loop sampled through the run.

The shared 2-core hosts this benchmark runs on switch between a fast and a
slow speed every few tenths of a second, and the share of fast time drifts
over minutes, so the same code's wall time moves by up to 1.4x between
runs.  :class:`HostClock` times a fixed reference loop every
:data:`PERIOD_S` of process CPU time (``SIGPROF``; the campaign runner owns
``SIGALRM``).  Each stretch of workload time between two samples is then
divided by the slowness measured around it -- the median loop time of the
:data:`WINDOW` samples around it over :data:`REF_NOMINAL_S`, raised to
:data:`SENSITIVITY`.  The loop's own time is left out of every reading.

A reading is therefore a time in seconds scaled to a host whose reference
loop takes :data:`REF_NOMINAL_S`; it moves with the program's own speed,
not with the host's.  The raw wall time is kept beside it in every record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: Process CPU time between two reference samples.
PERIOD_S = 0.02

#: Iterations of the reference loop (about 0.4 ms).
REF_ITERS = 500

#: Reference samples around a stretch whose median loop time scales it.
WINDOW = 4

#: How much the simulator's time moves with the loop's, as a power: on
#: the simulator's own units log time moved 0.7-1.0 times log loop time,
#: and ten-seed runs of all three workloads scaled by the full slowness
#: still read 0.06-0.21 lower per unit of log slowness.
SENSITIVITY = 0.85

#: Reference loop time the readings are scaled to: its median on the
#: 2-vCPU Intel Xeon host the bounds were set on, CPython 3.
REF_NOMINAL_S = 4.0e-4


_MATRIX = np.eye(8) * 0.5 + 0.01
_VECTOR = np.ones(8)


def reference_loop() -> None:
    """Fixed work shaped like the simulator's: integer and float
    arithmetic, dict and list traffic, and small-array numpy calls."""
    table: dict = {}
    acc = [0.0] * 8
    total = 0
    v = _VECTOR
    for i in range(REF_ITERS):
        total += i * i
        table[i & 63] = total
        acc[i & 7] += (i * 0.5) ** 0.5
        if i & 7 == 0:
            v = np.minimum(_MATRIX @ v + 0.1, 2.0)
            acc[0] += float(v[i & 7])


class HostClock:
    """Reference samples taken while a workload runs, and the normalised
    workload seconds of any interval inside it."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loop_s: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.loop_s.append(time.perf_counter() - t0)

    def slowness(self) -> float:
        """Median reference loop time over :data:`REF_NOMINAL_S`."""
        return statistics.median(self.loop_s) / REF_NOMINAL_S if self.loop_s else 1.0

    def seconds(self, a: float, b: float) -> float:
        """Normalised workload seconds between ``perf_counter`` readings
        ``a`` and ``b`` (raw seconds when no sample was taken)."""
        if not self.loop_s:
            return b - a
        starts, loop_s = self.starts, self.loop_s
        half = WINDOW // 2
        k = bisect.bisect_right(starts, a)
        # The stretch before sample k lies between samples k-1 and k; the
        # median of the WINDOW samples around it gives its slowness.
        total = 0.0
        lo = a
        if k > 0:
            lo = max(lo, starts[k - 1] + loop_s[k - 1])
        while lo < b:
            hi = min(b, starts[k]) if k < len(starts) else b
            around = loop_s[max(0, k - half):k + half]
            slowness = statistics.median(around) / REF_NOMINAL_S
            total += max(0.0, hi - lo) / slowness**SENSITIVITY
            if k >= len(starts):
                break
            lo = starts[k] + loop_s[k]
            k += 1
        return total


#: The clock of the worker process.
CLOCK = HostClock()
