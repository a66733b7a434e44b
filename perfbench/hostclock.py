"""Nominal seconds: wall time corrected for the host's measured speed.

Benchmark machines often share their cores with other tenants.  On a shared
2-vCPU Intel Xeon virtual machine, one pass of ``game-eg`` took from 2.4 to
4.7 s of wall time for identical work, depending on what ran beside it,
and each speed lasted for seconds to tens of seconds, so run medians of wall
time differed by 15-30 % between runs of the same code.  A fixed reference
kernel, a loop of matvecs plus interpreter work like the solvers' own hot
loops, tracked those swings: at 50x50 it ran 1.9x slower in the slow state.

:meth:`HostClock.timed` therefore times the kernel when a timed block starts,
every ``SAMPLE_EVERY_S`` inside it (from a ``SIGALRM`` interval timer, so that
long solves are sampled too) and when it ends.  Each segment of wall time
between two samples is converted to nominal seconds: its length times the
kernel's nominal time over the mean of the two kernel times that bracket it.
That is the time the segment would take on the nominal host, which runs each
kernel iteration's interpreter work in ``NOMINAL_STEP_S`` and its matvec at
``NOMINAL_FLOPS``.  A change to saddlekit moves nominal seconds as it moves
wall time; a change in host speed mostly cancels.  Kernel time itself is
excluded from both the wall and the nominal total.

Interpreter-bound and arithmetic-bound code slow down by different factors,
so the kernel's matrix has the workload's largest matrix dimension: 50x50
kernels over-corrected the 500x500 ``game-wide`` solves.
"""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

NOMINAL_STEP_S = 1.2e-6  # interpreter work of one kernel iteration on the nominal host
NOMINAL_FLOPS = 8e9  # matvec rate of the nominal host
SAMPLE_EVERY_S = 0.025  # interval of the in-block samples
_SAMPLE_FLOPS = 0.75e6  # work of one sample: about 0.3 ms, 1 % of the interval


@dataclass
class Stretch:
    """Time spent inside one :meth:`HostClock.timed` block, kernel samples excluded."""

    wall_s: float = 0.0
    nominal_s: float = 0.0


class HostClock:
    """Reference-kernel sampler and wall-to-nominal converter for one run.

    ``dim`` is the side of the kernel's matrix: the largest matrix dimension
    of the workload being timed.
    """

    def __init__(self, dim: int = 50):
        self._a = (np.arange(dim * dim, dtype=float).reshape(dim, dim) % 7) / 7.0
        self._x = np.ones(dim)
        self._iters = max(4, round(_SAMPLE_FLOPS / (2 * dim * dim)))
        self.kernel_nominal_s = self._iters * (NOMINAL_STEP_S + 2 * dim * dim / NOMINAL_FLOPS)
        self.samples: list[float] = []  # kernel times

    def kernel_s(self) -> float:
        """One timing of the reference kernel; kept in ``samples``."""
        a, x = self._a, self._x
        start = perf_counter()
        acc = 0.0
        for i in range(self._iters):
            y = a @ x
            acc += float(y[0])
            _ = {"i": i, "acc": acc}
        t = perf_counter() - start
        self.samples.append(t)
        return t

    def nominal(self, wall_s: float, kernel_before: float, kernel_after: float) -> float:
        """Nominal seconds of ``wall_s`` bracketed by two kernel times."""
        return wall_s * self.kernel_nominal_s * 2.0 / (kernel_before + kernel_after)

    @contextlib.contextmanager
    def timed(self, sample_inside: bool = True):
        """Time the block; the yielded :class:`Stretch` is filled in on exit.

        With ``sample_inside=False`` only the two ends are sampled, which keeps
        the kernel out of any timing taken inside the block (the tracer's).
        """
        out = Stretch()
        state = {"kernel": self.kernel_s(), "start": 0.0, "busy": False}

        def close_segment(end: float) -> None:
            if state["busy"]:  # a late alarm landing inside a sample
                return
            state["busy"] = True
            kernel = self.kernel_s()
            seg = end - state["start"]
            out.wall_s += seg
            out.nominal_s += self.nominal(seg, state["kernel"], kernel)
            state["kernel"] = kernel
            state["start"] = perf_counter()
            state["busy"] = False

        previous = None
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: close_segment(perf_counter()))
        state["start"] = perf_counter()
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield out
        finally:
            if sample_inside:
                # no alarm is raised after the timer stops, and one already raised
                # runs to completion before the last segment is closed
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            close_segment(perf_counter())
