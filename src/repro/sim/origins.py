"""Where a run's events come from: an opt-in count by origin.

Inside ``with count_origins() as origins:`` every timeline entry any
:class:`~repro.sim.Environment` schedules is charged to its origin, the
qualified name of

* the generator being resumed, when a process is running;
* otherwise the callback being run -- a tick's member rather than the tick
  (:meth:`~repro.sim.Environment.call_later`);
* otherwise :data:`OUTSIDE`: scheduled between steps, such as while a stack
  is built.

The counting versions of ``Environment.schedule`` and ``Environment.step``
are swapped in for the block only, so a run outside it does no extra work.
Deferred timers' callbacks run from ``settle()`` inside someone else's
step, so what they schedule is charged to that step's origin.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from .engine import Environment, _Tick

__all__ = ["OUTSIDE", "count_origins"]

#: The origin of entries scheduled while no step runs.
OUTSIDE = "(outside a step)"


def _origin_name(callback: Callable) -> str:
    """The qualified name an entry scheduled from ``callback`` is charged to."""
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, _Tick):
        callback = owner.running()
    return getattr(callback, "__qualname__", type(callback).__qualname__)


@contextmanager
def count_origins() -> Iterator[Counter]:
    """Count the entries scheduled inside the block by origin."""
    origins: Counter = Counter()
    running: List[Optional[Callable]] = [None]
    schedule, step = Environment.schedule, Environment.step

    def counted_schedule(env, *args, **kwargs):
        process = env._active_process
        if process is not None:
            origin = process._generator.__qualname__
        elif running[0] is not None:
            origin = _origin_name(running[0])
        else:
            origin = OUTSIDE
        origins[origin] += 1
        return schedule(env, *args, **kwargs)

    def charged(callback):
        def run(event):
            running[0] = callback
            callback(event)

        return run

    def counted_step(env):
        timeline = env._timeline
        if timeline:
            event = timeline[0][3]
            if event.callbacks:
                event.callbacks = [charged(callback) for callback in event.callbacks]
        try:
            step(env)
        finally:
            running[0] = None

    Environment.schedule, Environment.step = counted_schedule, counted_step
    try:
        yield origins
    finally:
        Environment.schedule, Environment.step = schedule, step
