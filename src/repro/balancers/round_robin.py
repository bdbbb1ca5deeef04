"""Round Robin (RR): the stateless baseline of §5.1."""

from __future__ import annotations

from typing import List

from ..core.interface import BalancerBase
from ..replica import ReplicaServer
from ..workloads.request import Request

__all__ = ["RoundRobinBalancer"]


class RoundRobinBalancer(BalancerBase):
    """Distributes requests to replicas in a fixed cyclic order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cursor = 0

    def select_replica(self, request: Request, candidates: List[ReplicaServer]) -> ReplicaServer:
        replica = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return replica
