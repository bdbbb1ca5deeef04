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

A *deferred* timer (:meth:`Environment.defer`) is one that may never need to
be an event.  It takes the place in that order an ordinary timer created at
the same moment would have taken -- a fractional tie-break between the
counter's current value and the next one -- but stays off the timeline.
:meth:`Environment.settle` runs the callbacks of every deferred timer that
sorts before the event being processed, and :meth:`Environment.promote` puts
one on the timeline at its reserved place when something must be woken by
it.  Whoever owns a deferred timer's inputs calls ``settle()`` before
changing them, so its callbacks see exactly the state of its firing time.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Tuple

from .calendar import CalendarQueue
from .events import AllOf, AnyOf, Deferred, Event, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule"]

#: Priority for events scheduled "urgently" (e.g. interrupts) so they run
#: before normal events scheduled at the same timestamp.
URGENT = 0
NORMAL = 1

#: Spacing of the fractional tie-breaks handed to deferred timers created
#: while the insertion counter holds one value: exact in a float for any
#: counter below 2**32, and room for 2**20 timers between two events.
_TIE_STEP = 2.0 ** -20
_TIES_PER_EID = 2 ** 20

_INF = float("inf")


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
        #: The timeline entry being processed, or the point the clock was
        #: stopped at: a deferred timer sorting before it has fired.
        self._entry: tuple = (-_INF,)
        #: Deferred timers not known to have fired: ``(at, NORMAL, key,
        #: timer)`` heap entries, the same shape as the timeline's.
        self._deferred: List[tuple] = []
        self._settling = False
        self._tie_eid = -1
        self._ties = 0

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
        tiebreak: Optional[float] = None,
    ) -> None:
        """Insert ``event`` into the timeline ``delay`` seconds from now, or
        at the absolute time ``at`` when given.

        ``at`` exists for callers that accumulate a float chain of delays
        ahead of time: ``now + (at - now)`` need not equal ``at``, so a
        precomputed instant must be scheduled as such.

        ``tiebreak`` replaces the insertion counter as the event's place
        among events at the same time and priority; :meth:`promote` passes
        the fractional key a deferred timer reserved.  The counter still
        advances, so it keeps counting every scheduled event.

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
        self._timeline.push(
            (at, priority, self._eid if tiebreak is None else tiebreak, event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._timeline.peek_time()

    # ------------------------------------------------------------------
    # deferred timers
    # ------------------------------------------------------------------
    def defer(self, delay: float, value: Any = None) -> Deferred:
        """A timer firing ``delay`` seconds from now that is not scheduled.

        It fires at ``now + delay`` -- the instant :meth:`schedule` would
        compute -- and sorts after every event scheduled so far and before
        every event scheduled from now on, as an ordinary timer created now
        would.  Its callbacks run from :meth:`settle` once the clock has
        passed that place, or from the timeline if it is promoted first.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r} would run the clock backwards")
        eid = self._eid
        if eid != self._tie_eid:
            self._tie_eid = eid
            self._ties = 0
        self._ties += 1
        if self._ties >= _TIES_PER_EID:
            raise RuntimeError("too many deferred timers between two scheduled events")
        timer = Deferred(self, self._now + delay, eid + self._ties * _TIE_STEP, value)
        heapq.heappush(self._deferred, (timer.at, NORMAL, timer.key, timer))
        return timer

    def promote(self, timer: Deferred) -> None:
        """Schedule a deferred timer that has not fired yet as an event, at
        the place it reserved."""
        self.schedule(timer, at=timer.at, tiebreak=timer.key)

    def settle(self) -> None:
        """Run the callbacks of every deferred timer that has fired: those
        sorting before the event being processed (or, between runs, at or
        before the time the clock stopped at), in firing order.

        Call it before changing any state a deferred timer's callbacks read.
        It is a no-op when nothing has fired, and it does not nest: a
        callback that settles while :meth:`settle` runs it changes nothing.
        """
        deferred = self._deferred
        if not deferred or self._settling or not deferred[0] < self._entry:
            return
        self._settling = True
        try:
            entry = self._entry
            while deferred and deferred[0] < entry:
                timer = heapq.heappop(deferred)[3]
                callbacks = timer.callbacks
                if callbacks is None:
                    # Promoted, and already processed on the timeline.
                    continue
                timer.callbacks = None
                for callback in callbacks:
                    callback(timer)
        finally:
            self._settling = False

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
            entry = self._timeline.pop()
        except IndexError:
            raise EmptySchedule("no more events scheduled") from None
        self._entry = entry
        self._now = entry[0]
        event = entry[3]
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

        value = self._run(stop_event, stop_time)
        # Leave the state as of where the run stopped, so code between runs
        # may read and change it freely.
        self.settle()
        return value

    def _run(self, stop_event: Optional[Event], stop_time: float) -> Any:
        timeline = self._timeline
        while timeline:
            if stop_event is not None and stop_event.processed:
                return stop_event.value
            if timeline.peek_time() > stop_time:
                self._stop_at(stop_time)
                return None
            self.step()

        if stop_event is not None:
            if stop_event.processed:
                return stop_event.value
            raise RuntimeError(
                "run() finished but the awaited event never triggered"
            )
        if stop_time != float("inf"):
            self._stop_at(stop_time)
        return None

    def _stop_at(self, when: float) -> None:
        """Stop the clock at ``when``: everything at or before it happened."""
        self._now = when
        self._entry = (when, _INF)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Environment now={self._now} queued={len(self._timeline)} "
            f"timeline={self._timeline_name}>"
        )
