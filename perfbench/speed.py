"""Machine-speed correction: a reference computation sampled from a timer signal.

The 2-vCPU KVM guest this benchmark was calibrated on runs at a speed that
drifts by up to 2x within seconds (host contention; the guest has no
performance counters to count instructions instead).  Every timed interval
is therefore reported twice: as raw wall seconds, and as seconds at
*reference speed*, each stretch of wall time scaled by ``NOMINAL_S / d``,
where ``d`` is the duration of a fixed reference computation measured right
there.

The reference runs inside a ``SIGALRM`` handler every ``PERIOD_S`` seconds,
on the main thread, so it starts no thread and samples the speed the
program itself is getting.  It is a pure-Python integer loop over values
below 2**30, so it allocates almost nothing and the program's heap cannot
slow it down; a change that slows the whole process (say, a thread left
spinning) still shows in the raw seconds.  Handler time is measured and
taken out of every interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import Dict, List, Tuple

#: Loop iterations of one reference computation (about 1 ms).
REF_ITERATIONS = 6000
#: Duration of one reference computation at the machine's fast level, as
#: measured when the benchmark was written: the unit of corrected time.
NOMINAL_S = 0.001
#: Interval of the sampling timer.
PERIOD_S = 0.05
#: Samples on each side whose median gives the speed of one stretch; the
#: median keeps a sample that was itself preempted from skewing it.
WINDOW = 2


def reference(iterations: int = REF_ITERATIONS) -> int:
    """The fixed reference computation (an LCG with a data-dependent branch)."""
    x = 12345
    acc = 0
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x3FFFFFFF
        if x & 1:
            acc = (acc + (x >> 16)) & 0x3FFFFFFF
        else:
            acc ^= x
    return acc


class SpeedSampler:
    """Runs :func:`reference` from ``SIGALRM`` and corrects intervals with it."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: Wall-clock extent of each sample (taken out of measured intervals).
        self.starts = array("d")
        self.ends = array("d")
        #: Thread CPU time of each reference computation: unlike its wall
        #: time, it excludes waits for the interpreter lock while another
        #: thread of the program holds it.
        self.durations = array("d")

    def sample(self) -> None:
        start = time.monotonic()
        cpu = time.thread_time()
        reference()
        self.durations.append(time.thread_time() - cpu)
        self.starts.append(start)
        self.ends.append(time.monotonic())

    def _handler(self, signum, frame) -> None:  # noqa: ARG002 - signal API
        self.sample()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self._handler)
        # Restart interrupted system calls instead of failing them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    # ------------------------------------------------------------------ #
    def _ref_around(self, index: int) -> float:
        """Median reference duration of the samples around gap ``index``
        (the gap between sample ``index - 1`` and sample ``index``)."""
        lo = max(0, index - WINDOW)
        hi = min(len(self.durations), index + WINDOW)
        return statistics.median(self.durations[lo:hi])

    def measure_all(self, intervals) -> Dict[str, float]:
        """:meth:`measure` summed over several ``(begin, end)`` intervals."""
        parts = [self.measure(begin, end) for begin, end in intervals]
        durations = [d for part in parts for d in part.pop("durations")]
        total = {key: sum(part[key] for part in parts) for key in ("s", "raw_s")}
        return {**total, **reference_stats(durations)}

    def measure(self, begin: float, end: float) -> Dict[str, float]:
        """Raw and speed-corrected seconds of the wall interval ``[begin, end]``.

        ``raw_s`` is the wall time minus the sampler's own time; ``s`` is
        that time at reference speed.  Also returns the median, minimum and
        maximum reference duration seen in the interval, and their count.
        """
        starts, ends = self.starts, self.ends
        raw = corrected = 0.0
        cursor = begin
        durations: List[float] = []
        # The gap before sample ``index`` (or, past the last sample, before
        # ``end``) is program time, scaled by the speed measured around it.
        for index in range(len(starts) + 1):
            last = index == len(starts)
            stop = end if last else min(end, starts[index])
            if stop > cursor:
                gap = stop - cursor
                raw += gap
                corrected += gap * NOMINAL_S / self._ref_around(index)
            if last or starts[index] >= end:
                break
            if ends[index] > begin:
                durations.append(self.durations[index])
                cursor = max(cursor, min(end, ends[index]))
        return {
            "s": corrected,
            "raw_s": raw,
            "durations": durations,
            **reference_stats(durations),
        }


def reference_stats(durations: List[float]) -> Dict[str, float]:
    """Median, minimum, maximum and count of reference durations."""
    return {
        "ref_median_s": statistics.median(durations) if durations else float("nan"),
        "ref_min_s": min(durations, default=float("nan")),
        "ref_max_s": max(durations, default=float("nan")),
        "ref_samples": len(durations),
    }
