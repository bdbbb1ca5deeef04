"""Discrete-event simulation kernel used by every other subsystem.

This is a self-contained, SimPy-style kernel: generator processes yield
:class:`Event` objects and an :class:`Environment` advances a virtual clock
(in seconds).  See ``tests/sim`` for focused examples of the semantics.
"""

from .engine import EmptySchedule, Environment
from .events import AllOf, AnyOf, Deferred, Event, PENDING, Timeout
from .process import Interrupt, InvalidYield, Process
from .resources import PriorityStore, Resource, Store

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Deferred",
    "AllOf",
    "AnyOf",
    "PENDING",
    "Process",
    "Interrupt",
    "InvalidYield",
    "Store",
    "PriorityStore",
    "Resource",
]
