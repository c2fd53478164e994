"""A speed probe: a fixed pure-Python kernel, timed between ops.

The shared 2-CPU virtual machine the benchmark runs on switches between a
fast and a slow state, about 1.7x apart, that last from a second to tens of
seconds.  Every piece of interpreted code slows down together, so a 40 s run
moves by 30 % or more with the share of its time spent in the slow state.

The benchmark runs this kernel between ops, outside their timed intervals,
and scales each op's time by `REFERENCE_S / (the kernel's time around that
op)`.  Scaled times are what the op would take on a machine on which the
kernel takes `REFERENCE_S`, close to its median on that VM.  The kernel uses
nothing from `choreo`, so a change to the library moves scaled times exactly
as it moves raw ones; only the machine's own speed cancels.  Raw times are
kept in the run record.
"""

import bisect
import statistics
import time

REFERENCE_S = 200e-6
# At most one probe in this interval; a state lasts much longer.
EVERY_S = 0.01
# Each op is scaled by the median of this many probes around it, so that one
# probe hit by an interrupt does not move the ops next to it.
SMOOTH = 5


def kernel() -> dict:
    """Dictionary updates and integer arithmetic, about 150-250 us."""
    d = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    return d


class Probe:
    def __init__(self):
        self.at = []  # when each probe ended (perf_counter)
        self.seconds = []  # how long each took

    def tick(self) -> float:
        """Run the kernel once; return its time."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.seconds.append(t1 - t0)
        return t1 - t0

    def maybe(self) -> None:
        """Probe unless one ran less than `EVERY_S` ago."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.tick()

    def factor(self, when: float) -> float:
        """Scale for an op that started at `when`: the reference over the
        median of the `SMOOTH` probes nearest before and after it."""
        if not self.seconds:
            return 1.0
        mid = bisect.bisect_right(self.at, when)
        lo = max(0, min(mid - SMOOTH // 2, len(self.seconds) - SMOOTH))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + SMOOTH])
