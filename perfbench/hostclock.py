"""Host time corrected for how fast the host is running right now.

The machines this benchmark runs on share their cores with other
tenants: over seconds to minutes the same Python code runs up to ~1.5x
slower or faster, and that swing is larger than most changes a later
commit could make.  Every host time the benchmark reports is therefore
in **reference seconds**::

    reference seconds = CPU seconds / slowness ** ELASTICITY

``slowness`` is the median CPU time of a fixed calibration loop divided
by :data:`REFERENCE_S`, the loop's time on the reference host.  A
profiling timer interrupts the process every :data:`SAMPLE_EVERY_S` of
CPU time and runs one calibration sample, so samples are spread evenly
over set-up and the measured phase alike, even inside long calls into
the program.  The samples' own CPU time is subtracted from every
interval.  The host flips between a fast and a slow mode within
seconds, so only medians over several samples are used, and a run
never measures two processes at once.

The calibration loop feels the slow mode more than the simulator does
(about 1.8x against 1.45x).  :data:`ELASTICITY` is the simulator's
measured response: regressing log(CPU seconds per guest step) on
log(slowness) over 120 slices of serve-steady and rewrite-churn runs
gave 0.68 and 0.58.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: CPU seconds of one calibration sample on the reference host (a
#: 2-core x86-64 VM, CPython 3.11, unloaded); this only fixes the unit
REFERENCE_S = 1.5e-3
#: CPU seconds between two calibration samples
SAMPLE_EVERY_S = 0.1
#: how strongly the simulator's CPU time follows the calibration loop's
ELASTICITY = 0.65
#: samples around an instant that give its local slowness
LOCAL_SAMPLES = 5


def _calibration_work() -> int:
    # dict, bytearray and integer traffic, like the simulator's own
    table: dict[int, int] = {}
    buffer = bytearray(256)
    total = 0
    for i in range(12_000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        buffer[i & 255] = i & 255
        total += buffer[(i * 7) & 255]
    return total


class HostClock:
    """Thread CPU time plus calibration samples taken along the way.

    The benchmark's processes are single-threaded, so this is their CPU
    time; the process-wide clock reads stale inside a profiling-timer
    handler on Linux, the thread clock does not.
    """

    def __init__(self) -> None:
        #: (CPU time at start, CPU seconds) of each calibration sample
        self.samples: list[tuple[float, float]] = []
        #: total CPU seconds spent calibrating so far
        self.spent = 0.0

    @staticmethod
    def now() -> float:
        return time.thread_time()

    def reading(self) -> tuple[float, float]:
        """``(CPU time, calibration CPU so far)``."""
        return (time.thread_time(), self.spent)

    def since(self, start: tuple[float, float]) -> float:
        """CPU seconds since ``start``, calibration samples left out."""
        return (time.thread_time() - start[0]) - (self.spent - start[1])

    def calibrate(self) -> None:
        start = time.thread_time()
        _calibration_work()
        elapsed = time.thread_time() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def __enter__(self) -> "HostClock":
        """Take a calibration sample every :data:`SAMPLE_EVERY_S`."""
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.calibrate()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _on_timer(self, signum, frame) -> None:
        self.calibrate()

    def slowness(self, start: float, end: float) -> float:
        """Median sample in ``[start, end)`` over :data:`REFERENCE_S`;
        the samples nearest ``start`` when none fell inside."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            return self.local_slowness(start)
        return statistics.median(inside) / REFERENCE_S

    def local_slowness(self, at: float) -> float:
        """Median of the :data:`LOCAL_SAMPLES` samples nearest ``at``."""
        index = bisect.bisect([t for t, __ in self.samples], at)
        low = max(0, index - LOCAL_SAMPLES // 2)
        nearest = self.samples[low:low + LOCAL_SAMPLES]
        return statistics.median(d for __, d in nearest) / REFERENCE_S

    @staticmethod
    def reference(cpu_s: float, slowness: float) -> float:
        """CPU seconds measured at ``slowness``, in reference seconds."""
        return cpu_s / slowness ** ELASTICITY
