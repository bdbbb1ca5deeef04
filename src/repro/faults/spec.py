"""Fault specifications and the pluggable fault registry.

A *fault* is described declaratively by a frozen :class:`FaultSpec`
dataclass -- pure data (names, scalars), so fault schedules pickle cleanly
into sweep worker processes, exactly like the typed system specs.  What a
fault *does* is a separate, registered **applier** resolved by the spec's
``kind`` at injection time, mirroring the pushing/constraint/selection
registries in :mod:`repro.core`:

.. code-block:: python

    from repro.faults import FaultSpec, register_fault

    @dataclass(frozen=True)
    class CoffeeSpill(FaultSpec):
        kind: str = "coffee-spill"
        region: str = "us"

    @register_fault("coffee-spill", spec=CoffeeSpill)
    def apply_coffee_spill(spec, ctx, record):
        ctx.balancer_in(spec.region).fail()

After registration the fault is a first-class citizen: it can appear in any
:class:`~repro.faults.schedule.FaultSchedule`, travels through
``run_sweep(..., faults=...)`` into worker processes (the executor forks,
so runtime registrations carry over) and shows up in the resilience
metrics like the built-ins.

Built-in kinds (appliers live in :mod:`repro.faults.injector`).  Each one
heals by its own ``duration_s``; ``duration_s=None`` means the fault lasts
for the rest of the run.

``replica-crash``
    Crash one replica (aborting its in-flight work); it comes back with a
    cold cache.
``balancer-fail``
    Kill a regional load balancer.  For SkyWalker-family systems the
    injector runs a :class:`~repro.core.controller.ServiceController`, so
    detection, replica takeover, DNS re-pointing, stranded-request
    re-routing and recovery are all controller-driven -- the paper's §4.2
    failover exercised end to end.  For controller-less systems (the
    centralized baselines, the gateway) the injector plays ops itself:
    DNS health off, stranded requests re-dispatched, recovery after
    ``duration_s``.
``region-partition``
    Block the network link between two regions (messages are dropped), or
    isolate one region from everyone (``b=None``).
``link-latency-spike``
    Add a constant extra one-way latency to a link.
``replica-degrade``
    Gray failure: slow a replica's compute to a named performance level
    (``thermal-throttle``, ``power-cap``, ...) without killing it.  The
    replica stays healthy, keeps answering probes, and its queue inflates
    -- which is exactly what load-aware routing is supposed to notice.
``link-degrade``
    Gray network failure: per-message loss probability and extra jitter on
    a link.  Probes feel the jitter but are never lost (slow, not dead).
``link-down``
    Take one physical link down.  This downs a graph edge of the network
    (:mod:`repro.net`) and re-converges routes around the cut: traffic
    *re-routes* where the topology allows, unlike a ``region-partition``
    which forbids the pair outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .._registry import Entry, NameRegistry

__all__ = [
    "FaultSpec",
    "ReplicaCrash",
    "BalancerFailure",
    "RegionPartition",
    "LinkLatencySpike",
    "ReplicaDegrade",
    "LinkDegrade",
    "LinkDown",
    "register_fault",
    "unregister_fault",
    "registered_faults",
    "resolve_fault",
    "make_fault",
]


# ----------------------------------------------------------------------
# fault specifications (pure data, picklable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """Base class for every fault's declarative description.

    Subclasses add their own knobs (all defaulted) and set ``kind`` to the
    registry name their applier is registered under.  Specs are data only:
    the behaviour lives in the registered applier, resolved by ``kind``
    wherever the fault is injected -- including inside sweep workers.
    """

    kind: str = ""

    @property
    def name(self) -> str:
        return self.kind


@dataclass(frozen=True)
class ReplicaCrash(FaultSpec):
    """Crash one replica; its in-flight and queued requests are aborted
    (and reported to the tracker as failed so clients are unblocked)."""

    kind: str = "replica-crash"
    region: str = "us"
    #: Index into the region's replicas, in deployment order.
    index: int = 0
    #: Recover after this many seconds (``None`` = down for the rest of
    #: the run).
    duration_s: Optional[float] = None
    #: On recovery, re-seed the replica's disk KV tier from its
    #: pre-crash contents: a crash loses HBM and host RAM, but durable
    #: storage survives a process restart.  Only meaningful when the run
    #: uses a :class:`~repro.mem.MemoryConfig` with a disk tier.
    preserve_disk: bool = False


@dataclass(frozen=True)
class BalancerFailure(FaultSpec):
    """Kill the load balancer serving ``region``.

    With a controller (SkyWalker-family systems) recovery is driven by the
    controller after its configured ``recovery_time_s`` and ``duration_s``
    is ignored; without one the injector restores the balancer (and its
    DNS record) after ``duration_s`` (``None`` = down for the rest of the
    run).
    """

    kind: str = "balancer-fail"
    region: str = "eu"
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class RegionPartition(FaultSpec):
    """Block the link between regions ``a`` and ``b`` (both directions).

    ``b=None`` isolates ``a`` from every other region.  Messages sent over
    a blocked link are dropped (counted in ``Network.dropped_messages``);
    peers behind the partition are marked unavailable by the availability
    monitor as soon as their next probe lands.
    """

    kind: str = "region-partition"
    a: str = "us"
    b: Optional[str] = None
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class LinkLatencySpike(FaultSpec):
    """Add ``extra_s`` of one-way latency to the ``a``<->``b`` link.

    Spikes compose: overlapping spikes on the same link sum, and each one
    removes exactly its own surcharge when it settles.  A spike on a
    partitioned link never resurrects the partition -- blocking and latency
    are independent per-edge states.
    """

    kind: str = "link-latency-spike"
    a: str = "us"
    b: str = "eu"
    extra_s: float = 0.2
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class ReplicaDegrade(FaultSpec):
    """Gray failure: slow one replica to a named performance level.

    ``level`` is a :data:`~repro.replica.PERFORMANCE_LEVELS` name (or a
    float multiplier in ``(0, 1]``).  The replica stays *healthy*: it keeps
    accepting requests and answering probes, but every prefill/decode step
    stretches by ``1/scale`` -- so its pending queue inflates and
    load-discounted routing can observe the slowness without any
    crash signal.  ``duration_s=None`` degrades for the rest of the run.
    """

    kind: str = "replica-degrade"
    region: str = "us"
    index: int = 0
    level: str = "thermal-throttle"
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class LinkDegrade(FaultSpec):
    """Gray network failure on the ``a``<->``b`` link.

    Adds a per-message ``loss_probability`` and an
    ``extra_jitter_fraction`` (positive-only latency inflation, as a
    fraction of the base one-way latency).  Loss draws come from the
    network's own seeded fault RNG -- never the workload or jitter streams
    -- so degraded runs stay deterministic per seed.  Probes are jittered
    but never lost: a gray link looks slow, not partitioned.
    """

    kind: str = "link-degrade"
    a: str = "us"
    b: str = "eu"
    loss_probability: float = 0.05
    extra_jitter_fraction: float = 0.5
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class LinkDown(FaultSpec):
    """Take the physical ``a``<->``b`` link down (both directions).

    ``a``/``b`` name *graph nodes* -- regions or WAN routers.  The
    network's route table re-converges deterministically around the cut
    (observable as ``route_changed`` events); pairs left with no surviving
    path drop messages until the link heals.  Downs are
    reference-counted, so overlapping faults compose.  ``duration_s=None``
    keeps the link down for the rest of the run.
    """

    kind: str = "link-down"
    a: str = "us"
    b: str = "eu"
    duration_s: Optional[float] = None


# ----------------------------------------------------------------------
# the fault registry
# ----------------------------------------------------------------------
#: Applier signature: ``(spec, ctx, record) -> None``.  ``ctx`` is the
#: :class:`repro.faults.injector.FaultInjector`; ``record`` the event's
#: :class:`repro.faults.injector.FaultRecord` (set ``target``, and heal it
#: with ``ctx.heal_after(spec.duration_s, record, undo)``).
FaultApplier = Callable[..., object]


#: The process-global fault registry.
_FAULTS = NameRegistry("fault", plural="faults")


def register_fault(
    name: str,
    *,
    spec: type = FaultSpec,
    description: str = "",
    replace_existing: bool = False,
) -> Callable[[FaultApplier], FaultApplier]:
    """Register a fault applier under ``name`` (case-insensitive).

    The public extension point: decorate a callable taking
    ``(spec, ctx, record)``.  It mutates the stack immediately and
    schedules its own healing with ``ctx.heal_after``.
    """
    return _FAULTS.register(
        name, spec=spec, description=description, replace_existing=replace_existing
    )


def unregister_fault(name: str) -> None:
    """Remove a registered fault (mainly for test cleanup)."""
    _FAULTS.unregister(name)


def registered_faults() -> Tuple[str, ...]:
    """Every fault kind currently registered (built-ins and plugins)."""
    return _FAULTS.names()


def resolve_fault(kind: str) -> Entry:
    """Look up the registered entry for a fault kind."""
    return _FAULTS.get(kind)


def make_fault(kind: str, **overrides) -> FaultSpec:
    """A default-configured spec instance for a registered fault kind."""
    entry = _FAULTS.get(kind)
    return entry.spec_cls(kind=entry.name, **overrides)
