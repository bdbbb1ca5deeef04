"""Pluggable candidate-selection policies for the SkyWalker balancer.

SELECTCANDIDATE in Algorithm 1 is a policy decision that is orthogonal to
the rest of the balancer (availability monitoring, selective pushing,
cross-region forwarding, routing constraints).  This module turns it into a
plug-in: a :class:`SelectionPolicy` picks the local replica and the remote
peer for a request, reading the prefix trees / hash rings and the load
estimates the balancer maintains.

Two built-in policies mirror the paper's variants:

* :class:`PrefixTreeSelection` -- SkyWalker (``routing == "prefix_tree"``)
* :class:`ConsistentHashSelection` -- SkyWalker-CH
  (``routing == "consistent_hash"``)

A policy is an object passed to the balancer (``selection_policy=``), so a
third-party policy is a subclass instance handed to
:func:`repro.experiments.systems.build_skywalker_region` (see the
``skywalker-hybrid`` system in :mod:`repro.experiments.hybrid`) without
touching the balancer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..replica import ReplicaServer
from ..workloads.request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .balancer import SkyWalkerBalancer

__all__ = [
    "SelectionPolicy",
    "PrefixTreeSelection",
    "ConsistentHashSelection",
]


class SelectionPolicy:
    """Strategy object deciding *where* a request should go.

    Both methods receive the balancer so they can read its routing state
    (prefix trees, hash rings, availability monitor) -- the policy itself
    stays stateless and therefore shareable between balancers.
    """

    #: Routing-layer name advertised by the balancer (``balancer.routing``).
    routing = "custom"

    def select_replica(
        self, balancer: "SkyWalkerBalancer", request: Request, candidates: List[ReplicaServer]
    ) -> ReplicaServer:
        raise NotImplementedError

    def select_balancer(
        self,
        balancer: "SkyWalkerBalancer",
        request: Request,
        candidates: List["SkyWalkerBalancer"],
    ) -> "SkyWalkerBalancer":
        """Pick the remote peer to forward to; defaults to most free capacity."""
        return _most_free_capacity(balancer, candidates)

    #: Whether the balancer should maintain its prefix trees on the dispatch
    #: and forward paths (policies that never read them can skip the cost).
    maintains_prefix_trees = False


def _most_free_capacity(
    balancer: "SkyWalkerBalancer", candidates: List["SkyWalkerBalancer"]
) -> "SkyWalkerBalancer":
    """No affinity anywhere: prefer the peer with the most free capacity,
    breaking ties by proximity."""

    def free_capacity(peer: "SkyWalkerBalancer") -> tuple:
        probe = balancer.monitor.balancer_probes.get(peer.name)
        available = probe.num_available_replicas if probe else 0
        latency = balancer.network.topology.one_way(balancer.region, peer.region)
        return (-available, latency)

    return min(candidates, key=free_capacity)


class PrefixTreeSelection(SelectionPolicy):
    """The full SkyWalker design: route to the best prefix match unless the
    match is weak or the preferred target is severely imbalanced (§3.2-3.3)."""

    routing = "prefix_tree"
    maintains_prefix_trees = True

    def select_replica(
        self, balancer: "SkyWalkerBalancer", request: Request, candidates: List[ReplicaServer]
    ) -> ReplicaServer:
        by_name = {replica.name: replica for replica in candidates}
        match = balancer.replica_trie.best_target(request.prompt_tokens, by_name.keys())
        if match.target is not None and match.hit_ratio >= balancer.prefix_match_threshold:
            preferred = by_name[match.target]
            if not balancer.severely_imbalanced(preferred, candidates):
                return preferred
        # Low prefix affinity (or a badly overloaded favourite): spread load
        # over the available replicas instead.
        return balancer.least_loaded(candidates)

    def select_balancer(
        self,
        balancer: "SkyWalkerBalancer",
        request: Request,
        candidates: List["SkyWalkerBalancer"],
    ) -> "SkyWalkerBalancer":
        by_name = {peer.name: peer for peer in candidates}
        match = balancer.snapshot_trie.best_target(request.prompt_tokens, by_name.keys())
        if match.target is not None and match.hit_ratio >= balancer.prefix_match_threshold:
            return by_name[match.target]
        return _most_free_capacity(balancer, candidates)


class ConsistentHashSelection(SelectionPolicy):
    """SkyWalker-CH: two-layer consistent hashing on a workload identity key."""

    routing = "consistent_hash"

    def select_replica(
        self, balancer: "SkyWalkerBalancer", request: Request, candidates: List[ReplicaServer]
    ) -> ReplicaServer:
        by_name = {replica.name: replica for replica in candidates}
        chosen = balancer.replica_ring.lookup(balancer.hash_key_fn(request), by_name.keys())
        if chosen is not None:
            return by_name[chosen]
        return balancer.least_loaded(candidates)

    def select_balancer(
        self,
        balancer: "SkyWalkerBalancer",
        request: Request,
        candidates: List["SkyWalkerBalancer"],
    ) -> "SkyWalkerBalancer":
        by_name = {peer.name: peer for peer in candidates}
        chosen = balancer.balancer_ring.lookup(balancer.hash_key_fn(request), by_name.keys())
        if chosen is not None:
            return by_name[chosen]
        return _most_free_capacity(balancer, candidates)
