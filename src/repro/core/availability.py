"""Availability monitoring: the MONITORAVAILABILITY loop of Algorithm 1.

Each SkyWalker load balancer runs one :class:`AvailabilityMonitor`.  Every
``probe_interval`` (100 ms by default, §4.1) it

* probes every **local replica** for its pending-queue size, marking the
  replica available when the pushing policy allows more work, and
* probes every **remote load balancer** for its number of available replicas
  and its own queue length, marking the peer available when it has at least
  one free replica and a short queue (buffer ``tau``).

Probes travel over the simulated network, so the information the balancer
acts on is stale by up to an RTT plus one probe interval -- the same
staleness the real system lives with.  To avoid dumping a whole queue onto
one target inside a single interval, the monitor additionally counts how
many requests were dispatched to each target since its last probe and lets
the pushing policy take that into account.

A peer probe's landing is rarely observed before the next one from the same
peer overwrites it, so it is not an event: its round trip is drawn when it
is sent, and it lands as a deferred timer (:meth:`Environment.defer
<repro.sim.Environment.defer>`) that is applied, from the peer's state as
of that moment, when something settles the environment.  That is exact
because everything a landing reads settles before it changes:

* the peer's health and queues (``BalancerBase.fail``/``recover``, its
  inbox's puts and gets, its serving loop);
* the peer monitor's replica records, dispatch notes and replica
  registration, and the health of each of its replicas;
* the route table (``Network._reconverge``) and the reader's own peer
  registration;

and every read of a probe record (:attr:`balancer_probes`,
:meth:`available_remote_balancers`, :meth:`note_forward`) settles first.  A
landing becomes a scheduled event only when it could wake someone: a
balancer parking on :meth:`wait_for_change` promotes its monitor's
landings still in flight, and probes sent while it is parked are promoted
at once.  Either way a landing takes exactly the place among events the
round trip's ``Timeout`` would have taken.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, TYPE_CHECKING

from ..net import Network
from ..replica import ReplicaServer
from ..sim import Deferred, Environment, Event
from .pushing import PushingPolicy, ReplicaProbe, SelectivePushingPending

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .balancer import SkyWalkerBalancer

__all__ = ["LoadBalancerProbe", "AvailabilityMonitor"]


class LoadBalancerProbe(NamedTuple):
    """Snapshot of a peer load balancer's advertised state."""

    balancer_name: str
    healthy: bool
    num_available_replicas: int
    queue_size: int
    probe_time: float


class AvailabilityMonitor:
    """Tracks which local replicas and remote balancers can accept work."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        region: str,
        *,
        pushing_policy: Optional[PushingPolicy] = None,
        probe_interval_s: float = 0.1,
        remote_queue_buffer: int = 4,
    ) -> None:
        self.env = env
        self.network = network
        self.region = region
        self.pushing_policy = pushing_policy or SelectivePushingPending()
        self.probe_interval_s = probe_interval_s
        #: ``tau`` in Algorithm 1: a peer with more queued requests than this
        #: is not a useful offload target.
        self.remote_queue_buffer = remote_queue_buffer

        self._local_replicas: Dict[str, ReplicaServer] = {}
        self._remote_balancers: Dict[str, "SkyWalkerBalancer"] = {}

        self.replica_probes: Dict[str, ReplicaProbe] = {}
        self._balancer_probes: Dict[str, LoadBalancerProbe] = {}
        self._dispatched_since_probe: Dict[str, int] = {}
        self._forwarded_since_probe: Dict[str, int] = {}
        #: Peer-probe landings not promoted to events (and perhaps already
        #: applied): the ones a waiter parking now must promote.
        self._in_flight: List[Deferred] = []

        #: Bumped whenever any input of a replica load estimate changes (a
        #: probe landing or a dispatch being recorded).  Selection policies
        #: memoise ``estimated_load`` per version, so a request that ranks
        #: many candidates computes each load once per probe epoch instead
        #: of once per comparison.
        self.load_version = 0

        self._change_event: Event = env.event()
        self._started = False
        self._cycle_start = 0.0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    # Peers' probes in flight read this monitor's replica registration,
    # records and dispatch notes: each change below settles first.
    def add_local_replica(self, replica: ReplicaServer) -> None:
        self.env.settle()
        self._local_replicas[replica.name] = replica
        self._dispatched_since_probe.setdefault(replica.name, 0)
        self.load_version += 1
        # Seed with an optimistic probe so the system can route before the
        # first heartbeat completes.
        self.replica_probes[replica.name] = ReplicaProbe(
            replica_name=replica.name,
            healthy=replica.healthy,
            num_pending=0,
            num_running=0,
            num_outstanding=0,
            memory_utilization=0.0,
            probe_time=self.env.now,
        )

    def remove_local_replica(self, replica_name: str) -> None:
        self.env.settle()
        self._local_replicas.pop(replica_name, None)
        self.replica_probes.pop(replica_name, None)
        self._dispatched_since_probe.pop(replica_name, None)
        self.load_version += 1

    def add_remote_balancer(self, balancer: "SkyWalkerBalancer") -> None:
        # Probes in flight land only on a registered peer.
        self.env.settle()
        self._remote_balancers[balancer.name] = balancer
        self._forwarded_since_probe.setdefault(balancer.name, 0)
        # Seed from the peer's live state (mirroring add_local_replica): a
        # peer that is already failed when attached -- e.g. controller
        # failover re-wiring -- must not look like a forward target until the
        # first real probe lands.
        self._balancer_probes[balancer.name] = LoadBalancerProbe(
            balancer_name=balancer.name,
            healthy=balancer.healthy,
            num_available_replicas=balancer.num_available_replicas,
            queue_size=balancer.queue_size,
            probe_time=self.env.now,
        )

    def remove_remote_balancer(self, balancer_name: str) -> None:
        self.env.settle()
        self._remote_balancers.pop(balancer_name, None)
        self._balancer_probes.pop(balancer_name, None)
        self._forwarded_since_probe.pop(balancer_name, None)

    def local_replicas(self) -> List[ReplicaServer]:
        return list(self._local_replicas.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if not self._started:
            self._started = True
            self.env.call_later(0.0, self._cycle)

    # A cycle is three fire-and-forget calls: the cycle start, the peer
    # probes' send and the end of the local round trip.  The first two are
    # tick members, so the monitors whose cycles start on the same instant
    # share one timeline entry for all of them.
    def _cycle(self) -> None:
        env = self.env
        self._cycle_start = env.now
        # Probe remote balancers in parallel: a zero-delay call sends every
        # peer probe, and each updates its entry when its own round trip
        # completes.
        if self._remote_balancers:
            env.call_later(
                0.0, self._send_balancer_probes, list(self._remote_balancers.values())
            )
        # Probe local replicas: one intra-region round trip covers them all
        # (they are probed concurrently in the real system).
        if self._local_replicas:
            rtt = self.network.probe_delay(self.region, self.region)
            rtt.callbacks.append(self._local_probe_landed)
        else:
            self._end_cycle()

    def _local_probe_landed(self, rtt: Event) -> None:
        self._record_replica_probes()
        self._end_cycle()

    def _end_cycle(self) -> None:
        # Wake any waiter at least once per cycle, even if the probe set is
        # empty, so the balancer's retry loop can never stall forever.
        self._notify_change()
        elapsed = self.env.now - self._cycle_start
        self.env.call_later(max(0.0, self.probe_interval_s - elapsed), self._cycle)

    def _send_balancer_probes(self, balancers: List["SkyWalkerBalancer"]) -> None:
        env = self.env
        # Only a parked waiter can hear a landing: while one is, landings
        # are events from the start.
        parked = bool(self._change_event.callbacks)
        in_flight = [landing for landing in self._in_flight if landing.callbacks is not None]
        probe_rtt = self.network.probe_rtt
        landed = self._balancer_probe_landed
        for balancer in balancers:
            landing = env.defer(probe_rtt(self.region, balancer.region), balancer)
            landing.callbacks.append(landed)
            if parked:
                env.promote(landing)
            else:
                in_flight.append(landing)
        self._in_flight = in_flight

    def _balancer_probe_landed(self, landing: Deferred) -> None:
        # A promoted landing first applies the ones that landed before it.
        self.env.settle()
        balancer: "SkyWalkerBalancer" = landing.value
        # A probe still in flight when its peer was removed (or replaced)
        # lands on nothing.
        if self._remote_balancers.get(balancer.name) is not balancer:
            return
        # A partitioned peer's probe never really comes back: record it as
        # unhealthy (with no spare replicas) so the peer stops being a
        # forward target until the link heals and a later probe lands.
        blocked = self.network.link_blocked(
            self.region, balancer.region
        ) or self.network.link_blocked(balancer.region, self.region)
        self._balancer_probes[balancer.name] = LoadBalancerProbe(
            balancer.name,
            balancer.healthy and not blocked,
            0 if blocked else balancer.num_available_replicas,
            balancer.queue_size,
            landing.at,
        )
        self._forwarded_since_probe[balancer.name] = 0
        self._notify_change()

    def _record_replica_probes(self) -> None:
        self.env.settle()
        now = self.env.now
        probes = self.replica_probes
        dispatched = self._dispatched_since_probe
        for name, replica in self._local_replicas.items():
            probes[name] = ReplicaProbe(name, replica.healthy, *replica.load(), now)
            dispatched[name] = 0
        self.load_version += 1

    # ------------------------------------------------------------------
    # queries used by the balancer
    # ------------------------------------------------------------------
    def available_local_replicas(self) -> List[ReplicaServer]:
        """Local replicas the pushing policy allows us to push to."""
        available: List[ReplicaServer] = []
        for name, replica in self._local_replicas.items():
            probe = self.replica_probes.get(name)
            if probe is None or not replica.healthy:
                continue
            dispatched = self._dispatched_since_probe.get(name, 0)
            if self.pushing_policy.replica_available(probe, dispatched):
                available.append(replica)
        return available

    @property
    def balancer_probes(self) -> Dict[str, LoadBalancerProbe]:
        """The latest landed probe of each registered peer."""
        self.env.settle()
        return self._balancer_probes

    def available_remote_balancers(self) -> List["SkyWalkerBalancer"]:
        """Remote balancers with spare replicas and a short queue."""
        available: List["SkyWalkerBalancer"] = []
        probes = self.balancer_probes
        for name, balancer in self._remote_balancers.items():
            probe = probes.get(name)
            if probe is None or not probe.healthy:
                continue
            forwarded = self._forwarded_since_probe.get(name, 0)
            if probe.num_available_replicas <= 0:
                continue
            if probe.queue_size + forwarded > self.remote_queue_buffer:
                continue
            available.append(balancer)
        return available

    def dispatched_since_probe(self, replica_name: str) -> int:
        """How many requests were pushed to a replica since its last probe.

        Public accessor for the load estimates the balancer and selection
        policies combine with the probed outstanding count.
        """
        return self._dispatched_since_probe.get(replica_name, 0)

    def note_dispatch(self, replica_name: str) -> None:
        """Record that a request was just pushed to a local replica."""
        self.env.settle()
        self._dispatched_since_probe[replica_name] = (
            self._dispatched_since_probe.get(replica_name, 0) + 1
        )
        self.load_version += 1

    def note_forward(self, balancer_name: str) -> None:
        """Record that a request was just forwarded to a peer balancer."""
        self.env.settle()
        self._forwarded_since_probe[balancer_name] = (
            self._forwarded_since_probe.get(balancer_name, 0) + 1
        )

    # ------------------------------------------------------------------
    # change notification (lets the balancer sleep while nothing is free)
    # ------------------------------------------------------------------
    def wait_for_change(self) -> Event:
        """An event that triggers the next time any probe result is updated.

        The caller is about to park on it, so the peer-probe landings still
        in flight become events: each of them can wake it."""
        env = self.env
        env.settle()
        for landing in self._in_flight:
            if landing.callbacks is not None:
                env.promote(landing)
        self._in_flight = []
        return self._change_event

    def _notify_change(self) -> None:
        event = self._change_event
        if not event.callbacks:
            # Nobody is parked on it: keep it for the next waiter instead of
            # scheduling a wake-up nobody hears.
            return
        self._change_event = self.env.event()
        if not event.triggered:
            event.succeed()
