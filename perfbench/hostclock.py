"""Timing in reference seconds, corrected for the host's speed.

On a shared host the speed of a CPU drifts by tens of percent over
seconds to minutes, as other tenants load its core.  On a 2-core host,
the per-run median wall time of one workload's sweep spread by 10-30%
(quartile distance over median, ten runs with ten seeds), and the
median of ten such runs moved by up to 17% between sets: more than any
useful regression bound.

While :meth:`HostClock.measure` times a block, an interval timer runs
a fixed pure-Python probe loop every :data:`PERIOD_S` seconds in the
main thread, so the probes sample the speed of the CPU the work runs
on, at the times it runs.  The block's :class:`Timing` holds

* ``wall_s`` and ``cpu_s``: wall and process CPU time (self plus
  waited-for children) minus the probes' own time;
* ``speed``: :data:`REF_PROBE_S` over the median probe time (1.0 when
  the host runs the probe in the reference time, below 1 when slower);
* ``ref_s`` and ``ref_cpu_s``: ``wall_s`` and ``cpu_s`` times
  ``speed``, the time the work would have taken at the reference
  speed.  The benchmark's timing metrics are reference seconds; the
  raw ``wall_s`` stays in the run record.

With this correction the same runs spread by 3-13%, most of it on the
smallest workload, where the work itself changes with the seed, and
the medians of two sets agreed within 4%.  The probe is the benchmark's
own code, so a change to the program moves ``ref_s`` in the same
proportion as it moves wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import statistics
import time
from typing import Iterator, List

#: Seconds between probes (about 2% of the time goes to the probes).
PERIOD_S = 0.02
#: The probe's duration at the reference speed.
REF_PROBE_S = 3.0e-4


def _probe_loop() -> int:
    total = 0
    for i in range(6000):
        total += i * i
    return total


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclasses.dataclass
class Timing:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    speed: float = 1.0

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


class HostClock:
    """Times blocks of work in reference seconds (module docstring)."""

    def __init__(self):
        self.probe_wall_s = 0.0
        self.probe_cpu_s = 0.0
        self._probes: List[float] = []

    def now(self) -> float:
        """A monotonic clock that stands still while a probe runs."""
        return time.perf_counter() - self.probe_wall_s

    def _probe(self, *_signal) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        _probe_loop()
        elapsed = time.perf_counter() - t0
        self._probes.append(elapsed)
        self.probe_wall_s += elapsed
        self.probe_cpu_s += time.process_time() - c0

    @contextlib.contextmanager
    def measure(self) -> Iterator[Timing]:
        """Time the block; the yielded :class:`Timing` fills in on exit."""
        timing = Timing()
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._probes = []
        self._probe()        # at least two probes, however short the block
        wall0, cpu0 = self.now(), _cpu_seconds() - self.probe_cpu_s
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            timing.wall_s = self.now() - wall0
            timing.cpu_s = _cpu_seconds() - self.probe_cpu_s - cpu0
            signal.signal(signal.SIGALRM, previous)
        self._probe()
        timing.speed = REF_PROBE_S / statistics.median(self._probes)
