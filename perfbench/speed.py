"""Times scaled to a nominal host speed.

The machine this benchmark was tuned on is shared with other tenants, and
its speed drifts by up to 2x over seconds to minutes; the benchmark's CPU
time drifts with its wall time, so neither can be trusted alone.  Every
timing is therefore taken next to a reference kernel: fixed pure-Python
work of the benchmark's own (float arithmetic and `math` calls, as in
gaussdp's special functions), timed right before and right after the timed
stretch.  A time ``t`` measured while the kernel took a median ``r``
seconds is reported as ``t * REFERENCE_S / r``: the time it would take on a
host where the kernel takes ``REFERENCE_S``.  The program does not run the kernel and
cannot change it, so a program that gets slower reads slower; a host that
gets slower slows the kernel alike and cancels out.

A pass is cut into segments of about ``SEGMENT_S`` of operations, with a
reference between segments, so that a change of speed within a pass is
followed; each operation is scaled by the references on either side of its
segment: the median of the two references before it and the two after it,
so that one reference an interrupt hit does not skew a segment.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# Times are reported for a host on which one reference kernel takes this long.
REFERENCE_S = 0.0015
# Operation time between two references.
SEGMENT_S = 0.02
KERNEL_ITERATIONS = 6000


def kernel(n: int = KERNEL_ITERATIONS) -> float:
    acc = 0.0
    for i in range(n):
        x = 0.5 + (i % 97) * 0.01
        acc += math.erfc(x) * math.exp(-1.0 / x) + math.log1p(x)
    return acc


def reference() -> float:
    """Wall time of one kernel.  It allocates no tracked objects, so the heap
    the workload has built (and the collector) does not weigh on it."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(*refs: float) -> float:
    """Factor from a time measured next to ``refs`` to the nominal host speed."""
    return REFERENCE_S / statistics.median(refs)


def timed(fn, *args):
    """(fn(*args), its wall time scaled to the nominal host speed), for one
    long operation: three references before it, three after."""
    before = [reference() for _ in range(3)]
    t0 = perf_counter()
    value = fn(*args)
    elapsed = perf_counter() - t0
    return value, elapsed * scale(*before, *(reference() for _ in range(3)))


class SegmentTimer:
    """Collects the times of a pass's operations, one at a time, and runs
    the reference after every ``SEGMENT_S`` of them."""

    def __init__(self, reference=reference) -> None:
        self.reference = reference
        self.refs = [reference()]
        self.raw: list[float] = []
        self.segment: list[int] = []
        self.walls: list[float] = []
        self.busy = 0.0
        self.t_segment = perf_counter()

    def record(self, t: float) -> None:
        self.raw.append(t)
        self.segment.append(len(self.walls))
        self.busy += t
        if self.busy >= SEGMENT_S:
            self._cut()

    def _cut(self) -> None:
        self.walls.append(perf_counter() - self.t_segment)
        self.refs.append(self.reference())
        self.busy = 0.0
        self.t_segment = perf_counter()

    def finish(self) -> tuple[list, float, float, float]:
        """(scaled operation times, scaled wall time, raw wall time, the
        host's median slowdown against the nominal speed)."""
        if self.busy or not self.walls:
            self._cut()
        refs = self.refs
        scales = [scale(*refs[max(0, j - 1):j + 3]) for j in range(len(self.walls))]
        times = [t * scales[s] for t, s in zip(self.raw, self.segment)]
        wall = math.fsum(w * s for w, s in zip(self.walls, scales))
        slowdown = statistics.median(self.refs) / REFERENCE_S
        return times, wall, math.fsum(self.walls), slowdown
