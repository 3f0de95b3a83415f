"""The benchmark's clock: CPU time, scaled to a fixed reference speed.

On a shared virtual machine the host's speed drifts: a fixed loop of
pure-Python work took anywhere from 85 to 165 ms of CPU time, in stretches
of seconds to minutes, so a whole run can sit in a slow or a fast stretch.
The clock therefore times a fixed probe between ops, at least every
`every` seconds, and scales each op's CPU time by the probe's reference
time over its median time within CAL_WINDOW seconds of the op.

Each workload has the probe that follows its ops best: `calibrate`, a
2 ms loop of the exact arithmetic and dict work of the polytope engine;
`array_cost`, a 2.5 ms loop over small numpy arrays like the local model's;
and `start_cost`, a bare interpreter start in a child (`python -c pass`,
50 ms), for ops that are CLI processes, whose start-up drifts apart from
either loop.  A time is then "seconds at the speed where the probe takes
its reference time".

No probe calls the program, so a change to the program moves them only
through the machine: work in other threads that competes for the core,
or memory that evicts their caches.
"""
from __future__ import annotations

import bisect
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable

CAL_REF_S = 0.002      # the loop's CPU time at the reference speed
ARRAY_REF_S = 0.0025   # the array loop's CPU time at that speed
START_REF_S = 0.05     # a bare interpreter start's CPU time at that speed
CAL_WINDOW = 1.0       # wall seconds around an op whose calibrations count
CAL_MIN = 3            # calibrations to use where the window holds fewer


def cpu_clock() -> float:
    """CPU seconds used by this process and by every child it has waited for.

    The engine is single-threaded and does no I/O, so on an idle core this
    equals wall time, while on a shared VM the wall clock also counts the
    time the host takes the vCPU away.
    """
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed loop of Fraction arithmetic, dict updates and
    a sort: the kind of interpreter work the engine does."""
    t0 = time.process_time()
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 7)
    d: dict[int, int] = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i
    sorted(range(2000, 0, -1))
    return time.process_time() - t0


def array_cost() -> float:
    """CPU seconds of a fixed loop of numpy operations on 3-element arrays."""
    import numpy as np
    t0 = time.process_time()
    w = np.array([2.0, -1.0, 3.0])
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.7 - 0.4j])
    s = 0.0
    for i in range(150):
        e = np.exp(w * (i * 0.01)) * z
        s += float(np.sum(w * np.abs(e) ** 2) / np.sum(np.abs(e) ** 2))
    return time.process_time() - t0


def start_cost(env: dict) -> float:
    """CPU seconds of a bare interpreter start in a child process."""
    t0 = cpu_clock()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return cpu_clock() - t0


class Clock:
    """Calibrations over the run, and the scale factor they give an op."""

    def __init__(self, probe: Callable[[], float] = calibrate,
                 ref_s: float = CAL_REF_S, every: float = 0.1) -> None:
        self.probe = probe
        self.ref_s = ref_s
        self.every = every             # wall seconds between calibrations, at most
        probe()                        # a first call may pay for imports
        self.at: list[float] = []      # wall time of each calibration
        self.cal: list[float] = []     # its CPU seconds
        self.last = float("-inf")

    def calibrate(self) -> None:
        c = self.probe()
        self.at.append(time.perf_counter())
        self.cal.append(c)
        self.last = self.at[-1]

    def tick(self) -> float:
        """Call before an op: calibrate if due, and return the wall time."""
        if time.perf_counter() - self.last >= self.every:
            self.calibrate()
        return time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """The reference time over the median calibration around [start, end]."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW)
        if hi - lo < CAL_MIN:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - CAL_MIN // 2, len(self.at) - CAL_MIN))
            hi = lo + CAL_MIN
        return self.ref_s / statistics.median(self.cal[lo:hi])

    def scaled(self, fn: Callable[[], object]) -> float:
        """Scaled CPU seconds of fn(), with CAL_MIN calibrations on each side."""
        for _ in range(CAL_MIN):
            self.calibrate()
        w0, t0 = time.perf_counter(), cpu_clock()
        fn()
        dt, w1 = cpu_clock() - t0, time.perf_counter()
        for _ in range(CAL_MIN):
            self.calibrate()
        return dt * self.factor(w0, w1)

    def speed_ms(self) -> float:
        """Median calibration of the run, in ms: the host's speed."""
        return statistics.median(self.cal) * 1e3
