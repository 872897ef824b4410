"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a share of a host whose speed swings by a factor of
1.5 to 2 over stretches of seconds to minutes (neighbours contending for
the same cores).  The swing moves every timing of a run together, so the
spread between runs of the same code would be set by the host, not by the
program.  To take it out, a fixed reference kernel (interpreted Python and
small numpy calls, the mix the package runs) is timed between operations;
each stretch of the workload's loop is scaled by the kernel's time at its
two ends, relative to the kernel's time on an uncontended core:

    calibrated = raw * NOMINAL_S / kernel_time

A calibrated time reads as the time the same work takes when the host runs
at nominal speed.  The raw wall times are kept and printed beside it.  The
kernel allocates no object the garbage collector tracks, so the probes do
not move the collector's schedule, and probe time is never counted in an
operation.
"""

import signal
import statistics
import time

import numpy as np

perf = time.perf_counter

# one kernel pass on an uncontended core of the host the baseline was
# measured on (2-vCPU Intel Xeon guest, Python 3.11, numpy 2.4)
NOMINAL_S = 2.0e-4

PROBE_REPS = 5            # kernel passes per probe (about 1 ms)

_A = np.linspace(-1.0, 1.0, 512).reshape(32, 16)


def _kernel() -> float:
    s = 0
    for i in range(1500):
        s += i * i
    x = 0.0
    for _ in range(16):
        x += float(np.exp(-0.01 * (_A @ _A.T)).sum())
    return s + x


def probe() -> float:
    """Median seconds of one kernel pass, over ``PROBE_REPS`` passes."""
    times = [0.0] * PROBE_REPS
    for k in range(PROBE_REPS):
        t0 = perf()
        _kernel()
        times[k] = perf() - t0
    return statistics.median(times)


class HostClock:
    """Raw and calibrated time of a loop, cut into stretches at each probe.

    The loop calls :meth:`lap` at operation boundaries, which probes the
    host and returns the time since the previous lap.  For operations far
    longer than the host's swings, ``every_s`` also probes from a
    ``SIGALRM`` timer every ``every_s`` seconds, so a long operation is
    calibrated stretch by stretch rather than from its two ends only.
    Probe time is in neither total.  Use as a context manager: leaving it
    stops the timer and restores the previous handler.
    """

    def __init__(self, every_s: float | None = None):
        self.every_s = every_s
        self.wall_s = 0.0
        self.cal_wall_s = 0.0
        self.factors: list[float] = []
        self._busy = False
        self._lap_at = (0.0, 0.0)
        self._handler = None
        self._last = self.first_probe_s = probe()
        self._t = perf()

    def __enter__(self):
        if self.every_s:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def _tick(self, signum, frame) -> None:
        if not self._busy:          # else the loop's own probe is running
            self._stretch()

    def _stretch(self) -> None:
        """End the current stretch with a probe; its slowdown is the mean
        of the probes at its two ends over nominal."""
        self._busy = True
        seg = perf() - self._t
        now = probe()
        factor = (self._last + now) / (2.0 * NOMINAL_S)
        self._last = now
        self.wall_s += seg
        self.cal_wall_s += seg / factor
        self.factors.append(factor)
        self._t = perf()
        self._busy = False

    def lap(self) -> tuple[float, float]:
        """Raw and calibrated seconds since the previous lap (or the start)."""
        self._stretch()
        wall0, cal0 = self._lap_at
        self._lap_at = (self.wall_s, self.cal_wall_s)
        return self.wall_s - wall0, self.cal_wall_s - cal0
