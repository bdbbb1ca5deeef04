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
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, TYPE_CHECKING

from ..net import Network
from ..replica import ReplicaServer
from ..sim import Environment, Event
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
        self.balancer_probes: Dict[str, LoadBalancerProbe] = {}
        self._dispatched_since_probe: Dict[str, int] = {}
        self._forwarded_since_probe: Dict[str, int] = {}

        #: Bumped whenever any input of a replica load estimate changes (a
        #: probe landing or a dispatch being recorded).  Selection policies
        #: memoise ``estimated_load`` per version, so a request that ranks
        #: many candidates computes each load once per probe epoch instead
        #: of once per comparison.
        self.load_version = 0

        self._change_event: Event = env.event()
        self._process = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_local_replica(self, replica: ReplicaServer) -> None:
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
        self._local_replicas.pop(replica_name, None)
        self.replica_probes.pop(replica_name, None)
        self._dispatched_since_probe.pop(replica_name, None)
        self.load_version += 1

    def add_remote_balancer(self, balancer: "SkyWalkerBalancer") -> None:
        self._remote_balancers[balancer.name] = balancer
        self._forwarded_since_probe.setdefault(balancer.name, 0)
        # Seed from the peer's live state (mirroring add_local_replica): a
        # peer that is already failed when attached -- e.g. controller
        # failover re-wiring -- must not look like a forward target until the
        # first real probe lands.
        self.balancer_probes[balancer.name] = LoadBalancerProbe(
            balancer_name=balancer.name,
            healthy=balancer.healthy,
            num_available_replicas=balancer.num_available_replicas,
            queue_size=balancer.queue_size,
            probe_time=self.env.now,
        )

    def remove_remote_balancer(self, balancer_name: str) -> None:
        self._remote_balancers.pop(balancer_name, None)
        self.balancer_probes.pop(balancer_name, None)
        self._forwarded_since_probe.pop(balancer_name, None)

    def local_replicas(self) -> List[ReplicaServer]:
        return list(self._local_replicas.values())

    def remote_balancers(self) -> List["SkyWalkerBalancer"]:
        return list(self._remote_balancers.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._process is None:
            self._process = self.env.process(self._run())

    def _run(self):
        env = self.env
        while True:
            cycle_start = env.now
            # Probe remote balancers in parallel: a zero-delay timer sends
            # every peer probe, and each updates its entry when its own
            # round trip completes.
            if self._remote_balancers:
                timer = env.timeout(0, list(self._remote_balancers.values()))
                timer.callbacks.append(self._send_balancer_probes)
            # Probe local replicas: one intra-region round trip covers them
            # all (they are probed concurrently in the real system).
            if self._local_replicas:
                yield self.network.probe_delay(self.region, self.region)
                self._record_replica_probes()
            # Wake any waiter at least once per cycle, even if the probe set
            # is empty, so the balancer's retry loop can never stall forever.
            self._notify_change()
            elapsed = env.now - cycle_start
            yield env.timeout(max(0.0, self.probe_interval_s - elapsed))

    def _send_balancer_probes(self, timer: Event) -> None:
        for balancer in timer.value:
            rtt = self.network.probe_delay(self.region, balancer.region)
            rtt.callbacks.append(partial(self._balancer_probe_landed, balancer))

    def _balancer_probe_landed(self, balancer: "SkyWalkerBalancer", rtt: Event) -> None:
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
        self.balancer_probes[balancer.name] = LoadBalancerProbe(
            balancer_name=balancer.name,
            healthy=balancer.healthy and not blocked,
            num_available_replicas=0 if blocked else balancer.num_available_replicas,
            queue_size=balancer.queue_size,
            probe_time=self.env.now,
        )
        self._forwarded_since_probe[balancer.name] = 0
        self._notify_change()

    def _record_replica_probes(self) -> None:
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

    def available_remote_balancers(self) -> List["SkyWalkerBalancer"]:
        """Remote balancers with spare replicas and a short queue."""
        available: List["SkyWalkerBalancer"] = []
        for name, balancer in self._remote_balancers.items():
            probe = self.balancer_probes.get(name)
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
        self._dispatched_since_probe[replica_name] = (
            self._dispatched_since_probe.get(replica_name, 0) + 1
        )
        self.load_version += 1

    def note_forward(self, balancer_name: str) -> None:
        """Record that a request was just forwarded to a peer balancer."""
        self._forwarded_since_probe[balancer_name] = (
            self._forwarded_since_probe.get(balancer_name, 0) + 1
        )

    # ------------------------------------------------------------------
    # change notification (lets the balancer sleep while nothing is free)
    # ------------------------------------------------------------------
    def wait_for_change(self) -> Event:
        """An event that triggers the next time any probe result is updated."""
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
