"""Timing that holds still on a shared virtual machine.

On the 2-vCPU VM this benchmark was built on, the same work ran up to 1.8x
slower in some phases of several minutes than in others, and one vCPU at
times ran at half the speed of the other.  Raw wall times of identical runs
then spread by 15-25%, more than a regression bound can absorb.  So every
timed interval is probed with a fixed pure-Python loop on the same CPU,
before, after and every ``SAMPLE_EVERY_S`` during it, and reported in
*reference seconds*, the time it would have taken at the speed where one
probe takes ``REF_PROBE_S``:

    reference seconds = wall seconds * REF_PROBE_S / mean(probe times)

The probe never touches the code under test, so a change to the program
moves reference seconds in proportion to wall seconds.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

REF_PROBE_S = 2.0e-3  # one probe on that VM in its slower phases
SAMPLE_EVERY_S = 0.5  # probe period inside a long interval; costs about 1.5%
_ALLOWED = frozenset(os.sched_getaffinity(0))  # CPUs this process may use at start


def _loop_s() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def probe_s() -> float:
    """Seconds one probe takes on this CPU now; the best of three skips interrupts."""
    return min(_loop_s() for _ in range(3))


def to_ref(wall_s: float, probes: list[float]) -> float:
    """Rescale a wall-clock interval by the probe times taken across it."""
    return wall_s * REF_PROBE_S / statistics.fmean(probes)


class RefClock:
    """Times consecutive intervals; each interval's end probe starts the next.

    With ``sample=False`` an interval is probed only before and after, so
    no probe runs inside it: for the traced pass, whose spans would
    otherwise count the probes' time.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.last_probe = probe_s()

    def time(self, fn):
        """Run ``fn()``; return (its result, wall seconds, reference seconds).

        Probes during the interval run from a SIGALRM handler; their own
        time is taken out of the wall time.  Main thread only.
        """
        probes = [self.last_probe]
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            probes.append(probe_s())
            spent += time.perf_counter() - t0

        if self.sample:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall_s = time.perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        wall_s -= spent
        self.last_probe = probe_s()
        probes.append(self.last_probe)
        return result, wall_s, to_ref(wall_s, probes)


def pin_fastest_cpu() -> None:
    """Pin this process, and the children it starts, to the CPU that probes fastest."""
    if len(_ALLOWED) < 2:
        return
    best = {}
    for cpu in sorted(_ALLOWED):
        os.sched_setaffinity(0, {cpu})
        best[cpu] = probe_s()
    os.sched_setaffinity(0, {min(best, key=best.get)})


def unpin() -> None:
    """Allow this process, and the children it starts, every CPU again."""
    os.sched_setaffinity(0, _ALLOWED)
