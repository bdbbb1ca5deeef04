"""Discrete-event simulation kernel used by every other subsystem.

This is a self-contained, SimPy-style kernel: generator processes yield
:class:`Event` objects and an :class:`Environment` advances a virtual clock
(in seconds).  See ``tests/sim`` for focused examples of the semantics.
"""

from .engine import EmptySchedule, Environment
from .origins import count_origins
from .events import AllOf, Deferred, Event, PENDING, Timeout
from .process import Interrupt, InvalidYield, Process
from .resources import Store

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Deferred",
    "AllOf",
    "PENDING",
    "Process",
    "Interrupt",
    "InvalidYield",
    "Store",
    "count_origins",
]
