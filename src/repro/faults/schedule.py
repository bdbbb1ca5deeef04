"""Deterministic fault schedules: *when* each fault fires.

A :class:`FaultSchedule` is an immutable, picklable list of
``(at_s, FaultSpec)`` events plus the controller knobs governing
SkyWalker-style failover.  Schedules are executed by
:class:`~repro.faults.injector.FaultInjector` as ordinary simulation
processes, so for a fixed seed a faulted run is exactly as deterministic as
a fault-free one -- the same schedule + seed reproduces the same trace bit
for bit, serial or across sweep worker processes, and an *empty* schedule
is bit-identical to no schedule at all (the runner skips the injector).

Schedules also resolve **by name**: factories registered via
:func:`register_fault_schedule` let ``run_sweep(..., faults="eu-balancer-outage")``
ship only a string into worker processes, the same way pushing policies and
routing constraints travel as registered names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple, Union

from .._registry import NameRegistry
from .spec import BalancerFailure, FaultSpec

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "CompilesToFaultSchedule",
    "FaultsLike",
    "register_fault_schedule",
    "unregister_fault_schedule",
    "registered_fault_schedules",
    "make_fault_schedule",
    "resolve_fault_schedule",
]


class CompilesToFaultSchedule:
    """Base class for schedule *descriptions* that compile per run.

    A stochastic fault description (e.g.
    :class:`~repro.faults.stochastic.StochasticFaultSchedule`) is not a
    concrete event list -- it becomes one only once the run's
    ``duration_s`` and ``seed`` are known.  The runner calls
    :meth:`compile` right before building the injector; a concrete
    :class:`FaultSchedule` simply compiles to itself.  Subclasses must be
    plain picklable data so they travel into sweep workers like any other
    ``faults=`` argument.
    """

    def compile(self, *, duration_s: float, seed: int) -> "FaultSchedule":
        raise NotImplementedError


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: inject ``fault`` at simulation time ``at_s``."""

    at_s: float
    fault: FaultSpec

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at_s}")
        if not isinstance(self.fault, FaultSpec):
            raise TypeError(f"fault must be a FaultSpec, got {type(self.fault).__name__}")
        if not self.fault.kind:
            raise ValueError("fault spec has an empty kind")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable sequence of timed fault events plus failover knobs.

    ``use_controller`` (default on) makes the injector run a
    :class:`~repro.core.controller.ServiceController` for schedules that
    contain balancer faults on SkyWalker-family systems;
    ``controller_probe_interval_s`` / ``recovery_time_s`` configure it.
    Everything here is plain data, so schedules pickle into sweep workers
    and hash/compare by value.
    """

    events: Tuple[FaultEvent, ...] = ()
    #: Drive balancer failures through a ServiceController when the system
    #: supports it (SkyWalker-family balancers).
    use_controller: bool = True
    controller_probe_interval_s: float = 0.5
    #: Controller-driven recovery delay after a balancer failure is detected.
    recovery_time_s: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"events must be FaultEvent instances, got {type(event).__name__}"
                )
        if self.controller_probe_interval_s <= 0:
            raise ValueError("controller_probe_interval_s must be positive")
        if self.recovery_time_s <= 0:
            raise ValueError("recovery_time_s must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, at_s: float, fault: FaultSpec, **kwargs) -> "FaultSchedule":
        """A one-event schedule (keyword args forward to the constructor)."""
        return cls(events=(FaultEvent(at_s, fault),), **kwargs)

    def add(self, at_s: float, fault: FaultSpec) -> "FaultSchedule":
        """A new schedule with one more event appended (immutable builder)."""
        return replace(self, events=self.events + (FaultEvent(at_s, fault),))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def kinds(self) -> Tuple[str, ...]:
        """The fault kinds appearing in this schedule, in event order."""
        return tuple(event.fault.kind for event in self.events)

    def sorted_events(self) -> List[FaultEvent]:
        """Events in injection order: by time, ties broken by list order."""
        return sorted(self.events, key=lambda event: event.at_s)

    def merge(self, other: "FaultSchedule") -> "FaultSchedule":
        """Concatenate another schedule's events (keeping *this* schedule's
        controller knobs).  Event order is preserved, so identical-time
        events from ``self`` still inject before ``other``'s."""
        return replace(self, events=self.events + tuple(other.events))

    def compile(self, *, duration_s: float, seed: int) -> "FaultSchedule":
        """A concrete schedule is already compiled (returns ``self``)."""
        return self


#: What every ``faults=`` parameter accepts: nothing, a schedule, a
#: stochastic description compiling to one, or the name of a registered
#: schedule factory.
FaultsLike = Union[None, str, FaultSchedule, CompilesToFaultSchedule]


# ----------------------------------------------------------------------
# the schedule registry
# ----------------------------------------------------------------------
_SCHEDULES = NameRegistry("fault schedule", plural="fault schedules")


def register_fault_schedule(
    name: str, *, replace_existing: bool = False
) -> Callable[[Callable[..., FaultSchedule]], Callable[..., FaultSchedule]]:
    """Register a schedule factory under ``name`` (case-insensitive).

    The factory takes keyword arguments (all defaulted) and returns a
    :class:`FaultSchedule`.  Registered names are accepted anywhere a
    schedule object is -- ``ExperimentConfig(faults="...")`` and every
    ``run_*(..., faults="...")`` -- and resolve inside sweep workers.
    """
    return _SCHEDULES.register(name, replace_existing=replace_existing)


def unregister_fault_schedule(name: str) -> None:
    """Remove a registered schedule factory (mainly for test cleanup)."""
    _SCHEDULES.unregister(name)


def registered_fault_schedules() -> Tuple[str, ...]:
    """Every registered fault-schedule name."""
    return _SCHEDULES.names()


def make_fault_schedule(name: str, **kwargs):
    """Instantiate a registered schedule factory by name.

    Factories may return either a concrete :class:`FaultSchedule` or a
    :class:`CompilesToFaultSchedule` description (a stochastic scenario
    compiles per run seed)."""
    schedule = _SCHEDULES.make(name, **kwargs)
    if not isinstance(schedule, (FaultSchedule, CompilesToFaultSchedule)):
        raise TypeError(
            f"fault schedule factory {name!r} returned "
            f"{type(schedule).__name__}, expected FaultSchedule "
            "or CompilesToFaultSchedule"
        )
    return schedule


def resolve_fault_schedule(faults: FaultsLike):
    """Normalise a ``faults=`` argument to a schedule (or ``None``).

    ``None`` passes through (no fault machinery at all -- the zero-fault
    path is byte-for-byte the historical one); strings resolve through the
    schedule registry; schedule objects -- concrete or compiling -- are
    returned as-is (the runner compiles right before injection).
    """
    if faults is None:
        return None
    if isinstance(faults, (FaultSchedule, CompilesToFaultSchedule)):
        return faults
    if isinstance(faults, str):
        return make_fault_schedule(faults)
    raise TypeError(
        "faults must be None, a FaultSchedule, a CompilesToFaultSchedule, "
        f"or a registered schedule name; got {type(faults).__name__}"
    )


# ----------------------------------------------------------------------
# built-in schedules
# ----------------------------------------------------------------------
@register_fault_schedule("eu-balancer-outage")
def _eu_balancer_outage(
    at_s: float = 30.0, duration_s: float = 20.0, region: str = "eu"
) -> FaultSchedule:
    """The canonical §4.2 scenario: one regional balancer dies mid-run.

    Controller-driven recovery for SkyWalker systems; ``duration_s``-timed
    recovery for controller-less ones (the two are aligned so outage
    windows are comparable across system families).
    """
    return FaultSchedule(
        events=(FaultEvent(at_s, BalancerFailure(region=region, duration_s=duration_s)),),
        recovery_time_s=duration_s,
    )
