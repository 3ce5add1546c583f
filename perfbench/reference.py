"""A speed probe that measures how fast the host runs while a workload runs.

The benchmark's hosts are shared: neighbours on the same physical cores can
slow every instruction by half or more, for a fraction of a second or for
minutes, without any of it showing as steal or run-queue time.  Wall times of
the same code then spread across runs by more than any useful regression
bound.  The benchmark therefore samples the host's speed all through each
execution of a workload, in the measuring process and in the pool workers
it forks: a timer signal every ``INTERVAL_S`` runs a small fixed computation
and records how long it took.  The execution's wall time divided by the mean
of those probe times (``wall_ref``) is its length in units of the host's
speed at the time, so a slow stretch of the host stretches both.

The probe resembles what mixlab spends its time on: small numpy calls driven
from a Python loop, and dict and string work.  It never touches mixlab, so no
change to the program moves it; its inputs are constants, so every probe does
the same work.  A probe costs a few per cent of the execution's time, the same
share on every run.  Python runs signal handlers between bytecodes of the main
thread, so a long call into C delays a probe rather than splitting it.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025

_ROW = np.linspace(-1.0, 1.0, 6)


def probe_s() -> float:
    """Wall time of one run of the probe computation, in seconds."""
    started = perf_counter()
    acc = 0.0
    row = _ROW
    for i in range(72):
        e = np.exp(row - row.max())
        p = e / e.sum()
        acc += float(p[i % 6])
    table = {}
    for i in range(450):
        key = f"k{i % 37}"
        table[key] = table.get(key, 0.0) + math.sqrt(i)
    acc += sum(table.values())
    elapsed = perf_counter() - started
    assert acc > 0.0
    return elapsed


class SpeedProbe:
    """Runs :func:`probe_s` on a timer signal and keeps the probe times.

    The measuring process and every process it forks while the probe is
    active (mixlab's pool workers) probe their own cores; the times go to a
    shared anonymous mapping, one slot per process, so the mean covers every
    core the workload runs on.  Use as a context manager around the
    measurement; leaving it stops the timer and restores the previous
    handler.  ``mark()`` returns the totals so far and ``mean_since(mark)``
    the mean probe time after them.
    """

    SLOTS = 256  # [sum of probe times, number of probes] per process; reused round-robin

    def __init__(self):
        self._cells = memoryview(mmap.mmap(-1, self.SLOTS * 2 * 8)).cast("d")
        self._slot = 0
        self._forks = 0
        self._active = False
        self._previous = None
        os.register_at_fork(before=self._before_fork, after_in_child=self._start_in_child)

    def _before_fork(self) -> None:
        self._forks += 1

    def _start_in_child(self) -> None:
        # The child inherits the handler but not the timer.
        if self._active:
            self._slot = self._forks % self.SLOTS
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _on_timer(self, signum, frame) -> None:
        elapsed = probe_s()
        self._cells[2 * self._slot] += elapsed
        self._cells[2 * self._slot + 1] += 1.0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        cells = self._cells
        return math.fsum(cells[0::2]), math.fsum(cells[1::2])

    def mean_since(self, mark: tuple[float, float]) -> float:
        total, count = self.mark()
        if count <= mark[1]:
            raise RuntimeError("no speed probe ran during the execution")
        return (total - mark[0]) / (count - mark[1])
