"""Least Load (LL): route to the replica with the fewest outstanding requests."""

from __future__ import annotations

from typing import List

from ..core.interface import BalancerBase
from ..replica import ReplicaServer
from ..workloads.request import Request

__all__ = ["LeastLoadBalancer"]


class LeastLoadBalancer(BalancerBase):
    """Tracks outstanding requests per replica and picks the minimum.

    Note that "outstanding" counts *requests*, not tokens, which is exactly
    why the paper finds this policy insufficient for LLM workloads: two
    replicas with the same outstanding count can differ wildly in memory
    pressure and remaining work.
    """

    def select_replica(self, request: Request, candidates: List[ReplicaServer]) -> ReplicaServer:
        return min(
            candidates,
            key=lambda replica: (self.outstanding.get(replica.name, 0), replica.name),
        )
