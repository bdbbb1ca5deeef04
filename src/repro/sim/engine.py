"""The discrete-event simulation environment.

:class:`Environment` owns the simulation clock and the event timeline.  Times
are floats in **seconds** throughout this project; the unit matters because
the replica model profiles and network latency matrices are calibrated in
seconds as well.

The timeline is pluggable.  The default is the :class:`~repro.sim.calendar.
CalendarQueue` — amortized O(1) enqueue/dequeue, which is what keeps a
million-event day tractable.  The original ``heapq`` timeline is retained as
a private reference implementation (``Environment(timeline="heap")``): the
differential harness in ``tests/sim/test_engine_equivalence.py`` replays
randomized schedules through both and asserts identical pop order and final
state.  Both timelines order events by ``(time, priority, eid)`` where
``eid`` is a strictly increasing insertion counter, so the order is a unique
deterministic sequence — ties at the same timestamp pop in insertion order.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from .calendar import CalendarQueue
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule"]

#: Priority for events scheduled "urgently" (e.g. interrupts) so they run
#: before normal events scheduled at the same timestamp.
URGENT = 0
NORMAL = 1


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class _HeapTimeline:
    """The original global-heap timeline, kept as the reference oracle.

    O(log n) push/pop via ``heapq``.  Semantically authoritative: the
    calendar timeline must pop entries in exactly this order (the harness
    in ``tests/sim/test_engine_equivalence.py`` enforces it).
    """

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, Event]] = []

    def push(self, entry: Tuple[float, int, int, Event]) -> None:
        heapq.heappush(self._queue, entry)

    def pop(self) -> Tuple[float, int, int, Event]:
        return heapq.heappop(self._queue)

    def peek_time(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


#: Registry of timeline implementations selectable by name.
_TIMELINES = {
    "calendar": CalendarQueue,
    "heap": _HeapTimeline,
}


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock, in seconds.
    timeline:
        Scheduler implementation: ``"calendar"`` (default, amortized O(1))
        or ``"heap"`` (the reference ``heapq`` timeline).  Both produce
        bit-identical simulations; ``"heap"`` exists for the differential
        equivalence harness and as a fallback oracle.
    """

    def __init__(self, initial_time: float = 0.0, timeline: str = "calendar") -> None:
        self._now = float(initial_time)
        try:
            factory = _TIMELINES[timeline]
        except KeyError:
            raise ValueError(
                f"unknown timeline {timeline!r}; expected one of "
                f"{sorted(_TIMELINES)}"
            ) from None
        if factory is CalendarQueue:
            self._timeline = CalendarQueue(origin=self._now)
        else:
            self._timeline = factory()
        self._timeline_name = timeline
        self._eid = 0
        self._active_process: Optional[Process] = None

    # ------------------------------------------------------------------
    # clock and scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def timeline_name(self) -> str:
        """Name of the timeline implementation backing this environment."""
        return self._timeline_name

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = NORMAL,
        *,
        at: Optional[float] = None,
    ) -> None:
        """Insert ``event`` into the timeline ``delay`` seconds from now, or
        at the absolute time ``at`` when given.

        ``at`` exists for callers that accumulate a float chain of delays
        ahead of time: ``now + (at - now)`` need not equal ``at``, so a
        precomputed instant must be scheduled as such.

        Raises
        ------
        ValueError
            If ``delay`` is negative or ``at`` lies before ``now``: the
            simulation clock may never run backwards, and silently clamping
            would hide workload bugs.
        """
        if at is None:
            if delay < 0:
                raise ValueError(f"negative delay {delay!r} would run the clock backwards")
            at = self._now + delay
        elif at < self._now:
            raise ValueError(f"at={at!r} lies before now={self._now!r}")
        self._eid += 1
        self._timeline.push((at, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._timeline.peek_time()

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that fires at the absolute time ``when``."""
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule(event, at=when)
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        EmptySchedule
            If the timeline is empty.
        """
        try:
            when, _priority, _eid, event = self._timeline.pop()
        except IndexError:
            raise EmptySchedule("no more events scheduled") from None
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            # An event may legitimately end up in the queue twice (e.g. a
            # process interrupted while its target also fires).  The second
            # pop is a no-op.
            return
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody handled the failure: surface it to the caller of run().
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the timeline drains), a number
        (run until the clock reaches that time) or an :class:`Event` (run
        until the event is processed, returning its value).
        """
        if until is None:
            stop_event: Optional[Event] = None
            stop_time = float("inf")
        elif isinstance(until, Event):
            stop_event = until
            stop_time = float("inf")
            if stop_event.processed:
                return stop_event.value
        else:
            stop_event = None
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} lies in the past (now={self._now})"
                )

        timeline = self._timeline
        while timeline:
            if stop_event is not None and stop_event.processed:
                return stop_event.value
            if timeline.peek_time() > stop_time:
                self._now = stop_time
                return None
            self.step()

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise RuntimeError(
                "run() finished but the awaited event never triggered"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Environment now={self._now} queued={len(self._timeline)} "
            f"timeline={self._timeline_name}>"
        )
