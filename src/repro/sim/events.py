"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic "events + generator processes" design used by
SimPy: every point of synchronisation is an :class:`Event`.  A process
(driven by :class:`repro.sim.process.Process`) yields events and is resumed
when the event it waits on is *processed* by the environment.

Only the features the SkyWalker simulation needs are implemented, but they
are implemented fully (callbacks, values, failure propagation, condition
events) so that higher layers never have to work around the kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import Environment

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Deferred",
    "ConditionEvent",
    "AllOf",
]


class _PendingType:
    """Sentinel for "this event has no value yet"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()


class Event:
    """A single occurrence that processes can wait for.

    An event moves through three states:

    * *pending* -- created but not yet triggered,
    * *triggered* -- a value (or exception) has been set and the event is
      scheduled in the environment's queue,
    * *processed* -- the environment has popped it and run its callbacks.

    The whole event hierarchy is ``__slots__``-based: tens of thousands of
    events are created per simulated second, and slot storage measurably
    cuts both per-event allocation and attribute-access cost.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: When an exception propagates to a process that never handles it,
        #: ``defused`` suppresses re-raising at the environment level.
        self.defused = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been assigned."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event (or the exception if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception re-raised at their
        ``yield`` statement.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {status} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Timeout delay={self.delay}>"


class Deferred(Event):
    """A timer that is not on the timeline (see :meth:`Environment.defer`).

    It fires at ``at`` with the tie-break ``key`` an ordinary timer created
    at the same moment would have had, but only becomes an event when it is
    promoted; until then :meth:`Environment.settle` runs its callbacks once
    the event being processed sorts after it.  Its callbacks must therefore
    read the firing time from ``at``, not from ``env.now``.
    """

    __slots__ = ("at", "key")

    def __init__(self, env: "Environment", at: float, key: float, value: Any = None) -> None:
        # Event.__init__ inlined: a deferred timer is made per peer probe.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.at = at
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Deferred at={self.at}>"


class ConditionEvent(Event):
    """Base of :class:`AllOf`: an event composed of other events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: List[Event] = list(events)
        self._count = 0
        if not self.events:
            # An empty condition is immediately true.
            self.succeed({})
            return
        for event in self.events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")
            if event.callbacks is None:
                # Already processed: account for it synchronously.
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        # Only events that have actually been *processed* contribute a value;
        # a pending Timeout already carries its value but has not happened yet.
        return {
            event: event._value
            for event in self.events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect_values())


class AllOf(ConditionEvent):
    """Triggered when *all* component events have triggered successfully."""

    __slots__ = ()

