"""A host-speed probe, to scale host times to a fixed host speed.

A shared host runs this benchmark's single thread at a speed that drifts by
up to 2x over seconds and minutes (neighbours contend for the core and its
caches), so raw host times of identical runs spread widely.  :func:`probe`
times a fixed piece of pure-Python work shaped like the simulator's kernel
(a heap of timed events, generators resumed with ``send``, dict counters,
small ``__slots__`` objects) that takes about ``PROBE_NOMINAL_S`` on an
uncontended core.  ``run.py`` runs it between short slices of a simulation
and scales each slice's host time by ``PROBE_NOMINAL_S`` over the probe
times either side of it: the slice's host time at the probe's nominal speed.
"""

from __future__ import annotations

import heapq
import time

#: The probe's time on an uncontended core of the 2-core shared VM the
#: benchmark was defined on; scaled host times are in seconds at that speed.
PROBE_NOMINAL_S = 1.3e-3

_PROCESSES = 50
_STEPS = 1500


class _Job:
    __slots__ = ("when", "who")

    def __init__(self, when: int, who: int) -> None:
        self.when = when
        self.who = who


def _process(index: int, counts: dict):
    now = 0
    while True:
        now = yield (index * 7 + now) % 13 + 1
        counts[index % 17] = counts.get(index % 17, 0) + 1
        _Job(now, index)


def probe() -> float:
    """Host seconds one run of the fixed reference work took."""
    start = time.perf_counter()
    heap = []
    counts: dict = {}
    processes = []
    for index in range(_PROCESSES):
        process = _process(index, counts)
        heapq.heappush(heap, (next(process), index, index))
        processes.append(process)
    eid = _PROCESSES
    for _ in range(_STEPS):
        when, _, index = heapq.heappop(heap)
        eid += 1
        heapq.heappush(heap, (when + processes[index].send(when), eid, index))
    return time.perf_counter() - start
