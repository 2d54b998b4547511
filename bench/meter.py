"""Timing on a machine whose speed drifts: segments between probes.

The reference box is a 2-vCPU virtual machine whose speed moves by
about +-25 % over seconds (a pure-Python spin loop, measured in 2 s
blocks, reads 0.083-0.141 s for the same work).  Raw wall clock of a
10 s run therefore spreads far wider between runs than any bound worth
having, and running longer does not help because the drift is slow.

A :class:`Meter` cuts the measured work into segments of a few
milliseconds and runs a fixed *probe* between them: a little of each
kind of work the workloads are made of (interpreter arithmetic, small
NumPy calls with allocation and dictionary traffic, a small GEMM),
because a busy neighbour does not slow them all alike.  A segment's
wall divided by the probes that bracket it is a far steadier number
than the wall itself.  Multiplying by a fixed reference
probe time (:data:`REFERENCE_PROBE_S`, what the probe takes on the
reference box when nothing disturbs it) turns it back into seconds:
the wall the work takes at reference speed.  Every timing the
benchmark reports is such a *reference-speed* time;
``bench.machine_slowdown`` reports how far the raw clock was from it.
The reference is a constant, not the fastest probe of the run, so a
run that never sees the machine quiet still reads the same.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Meter", "probe", "SEGMENT_S", "REFERENCE_PROBE_S"]

#: A segment closes once it has run this long (then the probe runs).
SEGMENT_S = 0.008


#: Seconds :func:`probe` takes on the undisturbed reference box.
REFERENCE_PROBE_S = 0.00045


_ROWS = np.linspace(0.0, 1.0, 80).reshape(16, 5)
_W = np.linspace(-1.0, 1.0, 240).reshape(5, 48)
_A = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
_C = np.empty((96, 96))


def probe() -> float:
    """Seconds the fixed reference work took just now."""
    start = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i
    table = {}
    for i in range(90):
        y = np.dot(_ROWS[2:12], _W)
        np.maximum(y, 0.0, out=y)
        table[(i, y.shape)] = [i, np.array(y)]
        acc += table[(i, y.shape)][0]
    np.dot(_A, _A, out=_C)
    np.dot(_A, _A, out=_C)
    return time.perf_counter() - start


class Meter:
    """Times client calls and stages of one repetition.

    ``seg_wall[k]`` is bracketed by ``probes[k]`` and ``probes[k + 1]``;
    ``lat[j]`` is the latency of recorded call ``j`` and ``lat_seg[j]``
    the segment it ran in.  Probe time is in no segment.
    """

    def __init__(self, probe_fn=probe):
        self._probe = probe_fn
        self.seg_wall: list = []
        self.lat: list = []
        self.lat_seg: list = []
        self.probes = [probe_fn()]

    def calls(self, fn, n: int, record: bool = True) -> None:
        """``fn(i)`` for ``i`` in ``range(n)``: the closed client loop."""
        clock = time.perf_counter
        lat, lat_seg = self.lat, self.lat_seg
        seg_start = end = clock()
        for i in range(n):
            start = clock()
            fn(i)
            end = clock()
            if record:
                lat.append(end - start)
                lat_seg.append(len(self.seg_wall))
            if end - seg_start >= SEGMENT_S:
                self._close(end - seg_start)
                seg_start = end = clock()
        if end > seg_start:
            self._close(end - seg_start)

    def step(self, fn) -> None:
        """One stage that is not a loop of calls (a flush, a fit)."""
        start = time.perf_counter()
        fn()
        self._close(time.perf_counter() - start)

    def _close(self, wall: float) -> None:
        self.seg_wall.append(wall)
        self.probes.append(self._probe())

    # -- read-out --------------------------------------------------------
    @property
    def raw_wall(self) -> float:
        return sum(self.seg_wall)

    def factors(self) -> list:
        """Per segment: reference-speed seconds per raw second."""
        p = self.probes
        return [2.0 * REFERENCE_PROBE_S / (p[k] + p[k + 1])
                for k in range(len(self.seg_wall))]

    def walls(self) -> list:
        """Reference-speed wall of each segment."""
        return [w * f for w, f in zip(self.seg_wall, self.factors())]

    def wall(self) -> float:
        """Reference-speed wall of everything metered."""
        return sum(self.walls())

    def latencies(self) -> list:
        """Reference-speed latency of every recorded call."""
        f = self.factors()
        return [x * f[k] for x, k in zip(self.lat, self.lat_seg)]
