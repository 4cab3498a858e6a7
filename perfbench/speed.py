"""A speedometer for a machine whose speed drifts.

On a shared machine the same call can take 0.17 s in one process and 0.25 s in
the next, and the speed drifts by a fifth over tens of minutes.  The benchmark
therefore samples a fixed kernel that never touches the library, from a timer
signal every TICK_S seconds while a timed call runs, so the samples come from
the same moments as the call.  The kernel mixes what the library spends its
time on, Python dict/set/list traversal and small numpy calls, so both slow
down together.  `clock()` is a timer that leaves out the kernel's own time; a
call's time on that clock divided by the mean kernel time is the call's time
in kernel units, which a drift in machine speed leaves unchanged while a
change to the library moves it.
"""
from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TICK_S = 0.1
KERNEL_VERTICES = 300
KERNEL_EDGES = 1200
KERNEL_SOURCES = 10
KERNEL_SORTS = 400


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.adj: dict[int, set[int]] = {v: set() for v in range(KERNEL_VERTICES)}
        for u, v in rng.integers(0, KERNEL_VERTICES, size=(KERNEL_EDGES, 2)).tolist():
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)
        self.samples: list[float] = []
        self.spent = 0.0  # total kernel time so far

    def kernel(self) -> int:
        """A few milliseconds of breadth-first search and small sorts."""
        reached = 0
        for s in range(KERNEL_SOURCES):
            seen = {s}
            frontier = [s]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.adj[x]:
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            reached += len(seen)
        a = np.arange(64, dtype=np.int64)
        for _ in range(KERNEL_SORTS):
            a = np.sort((a * 7 + 3) % 101)
        return reached + int(a[0])

    def _timed_kernel(self) -> float:
        # The garbage collector is off meanwhile: a full collection would walk
        # whatever the library has on the heap and time that instead.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.kernel()
            dt = perf_counter() - t0
        finally:
            if gc_was_enabled:
                gc.enable()
        self.samples.append(dt)
        self.spent += dt
        return dt

    def clock(self) -> float:
        """perf_counter() minus all kernel time so far."""
        while True:  # retry if a tick lands between the two reads
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def sample(self, budget_s: float):
        """Time kernel calls for at least `budget_s` seconds (at least one call)."""
        spent = 0.0
        while spent < budget_s or spent == 0.0:
            spent += self._timed_kernel()

    @contextmanager
    def ticking(self):
        """Sample the kernel every TICK_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._timed_kernel())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean_since(self, first_sample: int) -> float:
        kernel = self.samples[first_sample:]
        return sum(kernel) / len(kernel)
