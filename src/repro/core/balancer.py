"""The SkyWalker regional load balancer (§3, Algorithm 1).

One :class:`SkyWalkerBalancer` runs in every region.  It is the first point
of contact for clients in that region, keeps a FCFS request queue, and for
each request either

* pushes it to an *available* local replica (selective pushing, §3.3), or
* forwards it to an *available* remote load balancer (cross-region traffic
  handling, §3.1), which then places it on one of its local replicas.

Candidate selection is a plug-in object passed as ``selection_policy``
(:mod:`repro.core.selection`): :class:`PrefixTreeSelection` (the full
SkyWalker design, the default), :class:`ConsistentHashSelection`
(SkyWalker-CH) or any custom
:class:`~repro.core.selection.SelectionPolicy`.  Pushing policies and
routing constraints are equally orthogonal plug-ins.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net import Network
from ..replica import ReplicaServer
from ..sim import Environment, Interrupt
from ..workloads.request import Request, RequestStatus
from .availability import AvailabilityMonitor
from .hash_ring import ConsistentHashRing
from .interface import BalancerBase
from .policies import AllowAll, RoutingConstraint
from .prefix_tree import PrefixTree
from .pushing import PushingPolicy, SelectivePushingPending
from .selection import PrefixTreeSelection, SelectionPolicy

__all__ = ["SkyWalkerBalancer"]


def _default_hash_key(request: Request) -> str:
    """Listing 1 uses the session id as the consistent-hashing key."""
    return request.session_id


class SkyWalkerBalancer(BalancerBase):
    """A regional load balancer participating in SkyWalker's two-layer design.

    Parameters
    ----------
    selection_policy:
        The :class:`~repro.core.selection.SelectionPolicy` choosing local
        replicas and remote peers: :class:`PrefixTreeSelection` (SkyWalker,
        the default), :class:`ConsistentHashSelection` (SkyWalker-CH), or a
        third-party policy -- custom candidate selection needs no subclass.
    pushing_policy:
        Selective-pushing policy; defaults to pending-request based SP-P.
    prefix_match_threshold:
        When the best prefix hit ratio falls below this value the balancer
        prefers the least-loaded available target instead (the adaptive
        behaviour discussed in §5.1).
    allow_remote:
        Disable to obtain the Region-Local baseline used in Fig. 10.
    constraint:
        Optional :class:`RoutingConstraint` (GDPR, same-continent, ...).
    hash_key_fn:
        Extracts the consistent-hashing key from a request (user id, session
        id, question id, ... depending on the workload).
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        network: Network,
        *,
        selection_policy: Optional[SelectionPolicy] = None,
        pushing_policy: Optional[PushingPolicy] = None,
        probe_interval_s: float = 0.1,
        prefix_match_threshold: float = 0.5,
        trie_max_tokens: int = 2_000_000,
        remote_queue_buffer: int = 4,
        allow_remote: bool = True,
        constraint: Optional[RoutingConstraint] = None,
        hash_key_fn: Callable[[Request], str] = _default_hash_key,
        balance_abs_threshold: int = 8,
        balance_rel_threshold: float = 1.5,
    ) -> None:
        super().__init__(env, name, region, network)
        self.selection = selection_policy or PrefixTreeSelection()
        self.routing = self.selection.routing
        self.pushing_policy = pushing_policy or SelectivePushingPending()
        self.prefix_match_threshold = prefix_match_threshold
        self.allow_remote = allow_remote
        self.constraint = constraint or AllowAll()
        self.hash_key_fn = hash_key_fn
        #: Prefix affinity yields to load balancing when the preferred
        #: replica is this much busier than the least-loaded candidate
        #: (§3.3: "prefix-aware routing must be combined with effective load
        #: balancing strategies").
        self.balance_abs_threshold = balance_abs_threshold
        self.balance_rel_threshold = balance_rel_threshold
        self.monitor = AvailabilityMonitor(
            env,
            network,
            region,
            pushing_policy=self.pushing_policy,
            probe_interval_s=probe_interval_s,
            remote_queue_buffer=remote_queue_buffer,
        )
        # Prefix-aware state (§3.2): one tree/ring per routing layer.
        self.replica_trie: PrefixTree[str] = PrefixTree(max_tokens=trie_max_tokens)
        self.snapshot_trie: PrefixTree[str] = PrefixTree(max_tokens=trie_max_tokens)
        self.replica_ring: ConsistentHashRing[str] = ConsistentHashRing()
        self.balancer_ring: ConsistentHashRing[str] = ConsistentHashRing()

        self._peers: Dict[str, "SkyWalkerBalancer"] = {}

        # Per-probe-epoch memo for estimated_load: selection policies rank
        # every candidate against every other (imbalance + least-load), so
        # without the memo each load is recomputed per comparison per
        # request.  The monitor bumps load_version whenever an input moves.
        self._load_cache: Dict[str, int] = {}
        self._load_cache_version = -1

        # Statistics.
        self.received_forwards = 0
        self.local_dispatches = 0
        self.remote_forwards = 0
        self.queue_wait_events = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _register_replica(self, replica: ReplicaServer) -> None:
        """Attach a replica this balancer manages as local."""
        self.monitor.add_local_replica(replica)
        self.replica_ring.add_target(replica.name)

    def remove_replica(self, replica_name: str) -> Optional[ReplicaServer]:
        replica = self._replicas.pop(replica_name, None)
        if replica is not None:
            # Detach our listeners so fail/recover cycles (controller
            # takeovers) don't stack duplicates on the replica.
            replica.remove_completion_listener(self._on_replica_complete)
            replica.remove_health_listener(self._on_replica_health)
        self.outstanding.pop(replica_name, None)
        self.monitor.remove_local_replica(replica_name)
        self.replica_ring.remove_target(replica_name)
        self.replica_trie.remove_target(replica_name)
        return replica

    def add_peer(self, balancer: "SkyWalkerBalancer") -> None:
        """Register a remote load balancer as an offload target."""
        if balancer.name == self.name:
            return
        self._peers[balancer.name] = balancer
        self.monitor.add_remote_balancer(balancer)
        self.balancer_ring.add_target(balancer.name)

    def remove_peer(self, balancer_name: str) -> None:
        self._peers.pop(balancer_name, None)
        self.monitor.remove_remote_balancer(balancer_name)
        self.balancer_ring.remove_target(balancer_name)
        self.snapshot_trie.remove_target(balancer_name)

    def peers(self) -> List["SkyWalkerBalancer"]:
        return list(self._peers.values())

    def start(self) -> None:
        """Start the availability monitor and the serving loop."""
        self.monitor.start()
        super().start()

    # ------------------------------------------------------------------
    # state advertised to peers (read by their probes)
    # ------------------------------------------------------------------
    @property
    def num_available_replicas(self) -> int:
        return self.monitor.num_available_replicas

    # ------------------------------------------------------------------
    # failure handling (used by the controller and the fault injector)
    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Restart a failed balancer with empty routing state.

        A real restart loses the in-memory prefix trees, so routing on
        pre-failure affinity data would be wrong: the replicas' caches were
        churned by the takeover balancer while this one was down.  The hash
        rings are pure functions of the membership (which the controller
        re-drives via add_replica/add_peer), so they stay.
        """
        if self.healthy:
            return
        self.replica_trie.clear()
        self.snapshot_trie.clear()
        super().recover()

    # ------------------------------------------------------------------
    # serving loop (HANDLEREQUEST in Algorithm 1)
    # ------------------------------------------------------------------
    def _serve(self):
        # queue_size is read by peer probes in flight: every change to it
        # settles first (the inbox settles its own puts and gets).
        settle = self.env.settle
        try:
            while True:
                if not self.queue:
                    request = yield self.inbox.get()
                    settle()
                    self._accept(request)
                # Drain whatever else already arrived so queue_size is honest.
                # Items move from the inbox to the queue with no settle in
                # between, so queue_size does not change.
                while self.inbox.items:
                    self._accept(self.inbox.items.popleft())
                request = self.queue[0]
                placed = yield from self._place(request)
                if placed:
                    settle()
                    self.queue.popleft()
        except Interrupt:
            return

    def _accept(self, request: Request) -> None:
        super()._accept(request)
        if request.forward_hops > 0:
            self.received_forwards += 1
        self.queue.append(request)

    def _place(self, request: Request):
        """Try to place the head-of-queue request; wait for availability if
        nothing can take it (selective pushing queues at the LB)."""
        while True:
            local = self.monitor.available_local_replicas()
            if local:
                replica = self._select_replica(request, local)
                self._dispatch_local(request, replica)
                return True
            if self.allow_remote and request.forward_hops == 0:
                remotes = self._eligible_remote_balancers(request)
                if remotes:
                    peer = self._select_balancer(request, remotes)
                    self._forward_remote(request, peer)
                    return True
            if self.pushing_policy.blind and self._replicas:
                # Blind pushing never queues: fall back to any healthy local
                # replica even if it looks full.
                healthy = [r for r in self._replicas.values() if r.healthy]
                if healthy:
                    replica = self._select_replica(request, healthy)
                    self._dispatch_local(request, replica)
                    return True
            # Nothing can accept the request right now: wait for the next
            # probe update and retry (the request stays at the queue head).
            self.queue_wait_events += 1
            yield self.monitor.wait_for_change()

    def _eligible_remote_balancers(self, request: Request) -> List["SkyWalkerBalancer"]:
        candidates = self.monitor.available_remote_balancers()
        return [
            peer
            for peer in candidates
            if self.constraint.allows(request, self.region, peer.region)
        ]

    # ------------------------------------------------------------------
    # candidate selection (SELECTCANDIDATE in Algorithm 1)
    # ------------------------------------------------------------------
    def _select_replica(self, request: Request, candidates: List[ReplicaServer]) -> ReplicaServer:
        return self.selection.select_replica(self, request, candidates)

    def _select_balancer(
        self, request: Request, candidates: List["SkyWalkerBalancer"]
    ) -> "SkyWalkerBalancer":
        return self.selection.select_balancer(self, request, candidates)

    # ------------------------------------------------------------------
    # load estimates shared with the selection policies
    # ------------------------------------------------------------------
    def estimated_load(self, replica: ReplicaServer) -> int:
        monitor = self.monitor
        if monitor.load_version != self._load_cache_version:
            self._load_cache_version = monitor.load_version
            self._load_cache.clear()
        name = replica.name
        load = self._load_cache.get(name)
        if load is None:
            probe = monitor.replica_probes.get(name)
            outstanding = probe.num_outstanding if probe else 0
            load = outstanding + monitor.dispatched_since_probe(name)
            self._load_cache[name] = load
        return load

    def severely_imbalanced(
        self, preferred: ReplicaServer, candidates: List[ReplicaServer]
    ) -> bool:
        """Is the prefix-preferred replica much busier than the lightest one?"""
        preferred_load = self.estimated_load(preferred)
        lightest = min(self.estimated_load(replica) for replica in candidates)
        return (
            preferred_load > self.balance_abs_threshold
            and preferred_load > self.balance_rel_threshold * max(lightest, 1)
        )

    def least_loaded(self, candidates: List[ReplicaServer]) -> ReplicaServer:
        return min(
            candidates,
            key=lambda replica: (self.estimated_load(replica), replica.name),
        )

    # ------------------------------------------------------------------
    # routing actions
    # ------------------------------------------------------------------
    def _dispatch_local(self, request: Request, replica: ReplicaServer) -> None:
        self._dispatch(request, replica)
        self.local_dispatches += 1

    def _known_prefix_tokens(self, request: Request, replica: ReplicaServer) -> int:
        """What the affinity trie says ``replica`` already holds of this
        prompt -- the part a selective push does not need to ship."""
        if self.selection.maintains_prefix_trees:
            return self.replica_trie.match_length(request.prompt_tokens, replica.name)
        return 0

    def _note_dispatch(self, request: Request, replica: ReplicaServer) -> None:
        if self.selection.maintains_prefix_trees:
            self.replica_trie.insert(request.prompt_tokens, replica.name)
        self.monitor.note_dispatch(replica.name)

    def _forward_remote(self, request: Request, peer: "SkyWalkerBalancer") -> None:
        request.forward_hops += 1
        request.status = RequestStatus.FORWARDED
        if self.selection.maintains_prefix_trees:
            # The regional snapshot tracks the prompts this region has sent
            # to each remote region (§3.2).
            self.snapshot_trie.insert(request.prompt_tokens, peer.name)
        self.monitor.note_forward(peer.name)
        self.network.deliver(request, self.region, peer.region, peer.inbox)
        self.remote_forwards += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<SkyWalkerBalancer {self.name} region={self.region} routing={self.routing} "
            f"replicas={len(self._replicas)} peers={len(self._peers)} queue={self.queue_size} "
            f"trie={len(self.replica_trie)}n/{self.replica_trie.total_tokens}tok "
            f"snapshot={len(self.snapshot_trie)}n/{self.snapshot_trie.total_tokens}tok>"
        )
