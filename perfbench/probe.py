"""Host-speed probe: scales a measured time to a reference host speed.

A shared host changes speed by tens of percent, both within a second and over
minutes, because neighbours load the same cores. The wall time of a job
follows those changes, so two runs of the same code can disagree by more than
any useful bound. The probe is a fixed pure-Python workload that does not use
leoqsim: heap operations and lookups of slotted objects in a dict, the kinds
of work the simulator's event loop does. It is timed while a job runs, and
each measured time is divided by how much slower the probe ran than
REFERENCE_S. A change to leoqsim cannot change the probe, so the scaled time
still moves with the program's own cost.

Each probe runs the workload twice and times only the second run, when its
tables are in cache, and it creates no object the garbage collector tracks.
So the job's memory footprint, which evicts the tables and fills the young
generation, does not reach the probe's time.

Two ways to sample:

- `bracket` times a short call and probes just before and just after it;
- `Sampler` probes every PERIOD_S from a SIGALRM handler during a long call,
  and the time spent in the handler is subtracted from the call's.

    speed = mean(REFERENCE_S / probe time)      # 1.0 at reference speed
    scaled time = (wall time - time spent probing) * speed
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time

# Median probe time on a 2-vCPU Intel Xeon VM under CPython 3.11; scaled
# times read as seconds at that speed.
REFERENCE_S = 0.00022
PERIOD_S = 0.02
STEPS = 300
SIZE = 4096


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


class Probe:
    """The fixed probe workload; calling it returns the seconds of one warm run."""

    def __init__(self) -> None:
        rng = random.Random(1604)
        self._heap = [rng.random() for _ in range(SIZE)]
        heapq.heapify(self._heap)
        self._step = [rng.random() for _ in range(STEPS)]
        self._keys = [rng.randrange(SIZE) for _ in range(STEPS)]
        self._table = {i: _Item(float(i), 0.0) for i in range(SIZE)}

    def _run(self) -> None:
        heap, table = self._heap, self._table
        pop, push = heapq.heappop, heapq.heappush
        for step, key in zip(self._step, self._keys):
            push(heap, pop(heap) + step)
            item = table[key]
            item.b += item.a * 0.5

    def __call__(self) -> float:
        self._run()  # brings the tables into cache
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0


def speed(durations) -> float:
    """Host speed over the probe durations, relative to REFERENCE_S."""
    return statistics.fmean(REFERENCE_S / d for d in durations)


def bracket(probe, fn, probes: int = 2) -> tuple[object, float, float]:
    """Call fn(); return its result, raw seconds and seconds at reference speed."""
    before = [probe() for _ in range(probes)]
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = [probe() for _ in range(probes)]
    return result, raw, raw * speed(before + after)


class Sampler:
    """Runs the probe every PERIOD_S from SIGALRM between start() and stop()."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.durations: list[float] = []
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.durations.append(self.probe())
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self.durations.clear()
        self.spent_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, wall_s: float) -> tuple[float, float]:
        """(wall_s less the time spent probing, that at reference speed)."""
        net = wall_s - self.spent_s
        if not self.durations:  # a call shorter than PERIOD_S
            self.durations.extend(self.probe() for _ in range(2))
        return net, net * speed(self.durations)
