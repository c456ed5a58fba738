"""A clock that reads the same whatever speed the machine is running at.

The sandbox this benchmark runs in is a shared 2-vCPU box whose speed
moves between states that last seconds to minutes: the *same* code was
measured at 23 ms and at 36 ms per operation in back-to-back runs, with
every quantile of the run shifted alike.  No statistic taken inside one
run can undo that, and it is several times the regression bounds.

So the benchmark measures the machine while it measures the program.
A small fixed *probe* (a Python loop plus a few numpy kernels, about a
millisecond) runs between operations, at most once per ``min_interval``
seconds.  The machine's speed at time t is ``PROBE_NOMINAL_S`` over the
probe's cost near t, and every duration the benchmark reports is the
integral of that speed over the measured interval: *seconds at nominal
machine speed*.  On a quiet machine in its fast state this is plain wall
time; in a slow state the same work still reads the same.  Sizing runs:
raw p50 of one operation spread 26-36 ms over six runs (IQR 30% of the
median), its nominal value 35.8-37.4 probe units (2%).

What it cannot remove: the probe shares the two cores with the program
under test, so a change that makes the *program* load the second core
differently shifts the probe a little (bounded by the ~1.3x SMT
penalty).  ``probe.slowdown`` is reported per layer so that is visible.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: The probe's cost on this class of machine in its fast state.  A
#: constant: changing it rescales every time the benchmark reports.
PROBE_NOMINAL_S = 1.0e-3

_PROBE_DATA = np.random.default_rng(0).integers(0, 1 << 40, 8192)


def probe() -> float:
    """Run the fixed probe; returns its cost in CPU seconds.

    CPU time, not wall: the machine's slow states slow the CPU itself
    (CPU time tracks wall time there), while a probe that merely loses
    its core to the program under test — three busy processes on two
    cores in the sharded workload — must not read as a slow machine.
    """
    t0 = time.thread_time()
    x = 0
    for i in range(15000):
        x += i * i
    order = np.argsort(_PROBE_DATA, kind="stable")
    picked = _PROBE_DATA[order]
    np.add.reduceat(picked, np.arange(0, picked.size, 7))
    np.bincount(_PROBE_DATA & 0xFFFF, minlength=1 << 16)
    return time.thread_time() - t0


class MachineClock:
    def __init__(self, min_interval: float = 0.05):
        self.min_interval = min_interval
        self.at: List[float] = []
        self.cost: List[float] = []
        self._curve = None

    def tick(self) -> None:
        """Probe now, unless the last probe is recent enough."""
        now = time.perf_counter()
        if self.at and now - self.at[-1] < self.min_interval:
            return
        self.cost.append(probe())
        self.at.append(now)
        self._curve = None

    def _nominal_curve(self):
        """Breakpoints and values of F(t) = nominal seconds elapsed by t:
        piecewise linear, each stretch run at the speed of the nearest
        probe (median-of-3 smoothed against a stray slow probe)."""
        if self._curve is None:
            if not self.at:
                self.tick()
            at = np.array(self.at)
            cost = np.array(self.cost)
            padded = np.r_[cost[:1], cost, cost[-1:]]
            smooth = np.median(
                np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0
            )
            speed = PROBE_NOMINAL_S / smooth
            edges = np.r_[at[0] - 1e6, (at[1:] + at[:-1]) / 2, at[-1] + 1e6]
            values = np.r_[0.0, np.cumsum(np.diff(edges) * speed)]
            self._curve = (edges, values)
        return self._curve

    def nominal(self, starts, ends):
        """Nominal seconds between ``starts`` and ``ends`` (perf_counter
        readings; scalars or equal-length sequences)."""
        edges, values = self._nominal_curve()
        return (np.interp(np.asarray(ends, dtype=float), edges, values)
                - np.interp(np.asarray(starts, dtype=float), edges, values))

    def slowdown(self) -> float:
        """Median probe cost over its nominal cost (1.0 = nominal speed)."""
        return float(np.median(self.cost)) / PROBE_NOMINAL_S


class Samples:
    """Start/end readings of repeated operations, reported in nominal
    seconds once the run (and so the probe series) is complete.  With
    ``per=k`` every reading spans ``k`` operations and reports their mean."""

    def __init__(self, per: int = 1):
        self.per = per
        self.starts: List[float] = []
        self.ends: List[float] = []

    def add(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.ends.append(end)

    def __len__(self) -> int:
        return len(self.starts)

    def extend(self, other: "Samples") -> None:
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)

    def seconds(self, machine: MachineClock) -> List[float]:
        return (machine.nominal(self.starts, self.ends) / self.per).tolist()
