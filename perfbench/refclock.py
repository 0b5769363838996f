"""A clock that reads time at a fixed reference speed of the host.

The benchmark shares a few cores of a host with other tenants.  While they
run, this process runs up to 1.8 times slower for seconds to minutes at a
time (CPU time moves with wall time, so it is not descheduling), and a whole
run can fall into a slow phase.  Wall times of the same code then spread by
more than any useful bound.

RefClock samples the host's current speed with a fixed pure-Python loop
(`ref_work`, integer arithmetic and dict and list operations, like the
library's own code and independent of it) at every `mark()` and, through
SIGALRM, every PERIOD_S seconds of wall time in between.  Each wall interval
between two samples counts as

    interval * REF_NOMINAL_S / (mean of the two reference times),

so readings are seconds at the speed at which `ref_work` takes REF_NOMINAL_S
(its fast-phase time on the 2-vCPU Xeon VM the benchmark was defined on).
The reference samples themselves are not counted.  A change to the library
cannot change `ref_work`, so the scale is the same for every commit.
"""

import signal
import time

REF_NOMINAL_S = 0.5e-3   # ref_work's time in a fast phase of the defining host
PERIOD_S = 0.005         # timer samples inside items; the samples are not counted

_MOD = (1 << 127) - 1


def ref_work():
    acc, table, out = 12345, {}, []
    for i in range(1500):
        acc = (acc * 0x9E3779B97F4A7C15 + i) % _MOD
        table[i & 63] = acc
        out.append(table.get((i * 7) & 63, 0) & 255)
    return sum(out)


class RefClock:
    """Use as `with RefClock() as clock:`; `clock.mark()` returns the
    normalised seconds elapsed since the clock started."""

    def __init__(self):
        self.elapsed = 0.0     # normalised seconds up to the last sample
        self.samples = 0
        self.wall_s = 0.0      # wall seconds counted, reference samples excluded
        self._last_end = None  # perf_counter when the last sample ended
        self._last_ref = None
        self._busy = False
        self._old_handler = None

    def mark(self):
        if self._busy:         # the timer fired inside a sample
            return self.elapsed
        self._busy = True
        t0 = time.perf_counter()
        ref_work()
        t1 = time.perf_counter()
        ref = t1 - t0
        if self._last_end is not None:
            wall = t0 - self._last_end
            self.wall_s += wall
            self.elapsed += wall * 2 * REF_NOMINAL_S / (self._last_ref + ref)
        self._last_end, self._last_ref = t1, ref
        self.samples += 1
        self._busy = False
        return self.elapsed

    def _on_alarm(self, signum, frame):
        self.mark()

    def __enter__(self):
        for _ in range(20):    # warm the loop before its first counted sample
            ref_work()
        self.mark()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.mark()            # a last pending alarm is handled in here
        signal.signal(signal.SIGALRM, self._old_handler)
        return False
