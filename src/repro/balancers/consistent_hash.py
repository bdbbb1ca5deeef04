"""Consistent Hashing (CH): ring-hash on a user-provided key (§5.1).

This is the centralized, single-layer counterpart of SkyWalker-CH: one ring
over every replica in every region, blind pushing, no availability
filtering.
"""

from __future__ import annotations

from typing import Callable, List

from ..core.hash_ring import ConsistentHashRing
from ..core.interface import BalancerBase
from ..replica import ReplicaServer
from ..workloads.request import Request

__all__ = ["ConsistentHashBalancer"]


def _default_key(request: Request) -> str:
    return request.session_id


class ConsistentHashBalancer(BalancerBase):
    """Ring-hash based routing keyed on user/session identity."""

    def __init__(self, *args, hash_key_fn: Callable[[Request], str] = _default_key,
                 virtual_nodes: int = 64, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hash_key_fn = hash_key_fn
        self.ring: ConsistentHashRing[str] = ConsistentHashRing(virtual_nodes=virtual_nodes)

    def add_replica(self, replica: ReplicaServer) -> None:
        super().add_replica(replica)
        self.ring.add_target(replica.name)

    def select_replica(self, request: Request, candidates: List[ReplicaServer]) -> ReplicaServer:
        by_name = {replica.name: replica for replica in candidates}
        chosen = self.ring.lookup(self.hash_key_fn(request), by_name.keys())
        if chosen is None:
            # Only possible if every candidate was removed from the ring.
            return candidates[0]
        return by_name[chosen]
