"""GKE-Gateway-style multi-cluster gateway baseline (§5.1).

GKE Gateway connects several regional clusters behind a unified endpoint:
clients hit the gateway in their own region, and the gateway sends each
request to one of the clusters -- preferring the local one and spilling over
to remote clusters based on coarse capacity/utilisation signals.  It is a
competent general-purpose L7 balancer, but (a) it has no notion of KV-cache
locality and (b) it pushes blindly, with no admission control tied to the
LLM engine's continuous batch.  Those are precisely the two properties the
paper credits for SkyWalker's advantage over it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.interface import BalancerBase
from ..net import Network
from ..replica import ReplicaServer
from ..sim import Environment
from ..workloads.request import Request

__all__ = ["GatewayBalancer"]


class GatewayBalancer(BalancerBase):
    """One per-region gateway of a multi-cluster (multi-region) deployment.

    Parameters
    ----------
    spill_threshold:
        Average outstanding requests per local replica above which the
        gateway starts sending traffic to the least-loaded remote cluster.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        network: Network,
        *,
        spill_threshold: float = 16.0,
    ) -> None:
        super().__init__(env, name, region, network)
        self.spill_threshold = spill_threshold
        #: cluster (region name) -> replicas in that cluster
        self._clusters: Dict[str, List[ReplicaServer]] = {}
        self._cursors: Dict[str, int] = {}
        self.spilled_requests = 0

    # ------------------------------------------------------------------
    def _register_replica(self, replica: ReplicaServer) -> None:
        self._clusters.setdefault(replica.region, []).append(replica)
        self._cursors.setdefault(replica.region, 0)

    # ------------------------------------------------------------------
    def _cluster_load(self, region: str) -> float:
        replicas = [r for r in self._clusters.get(region, []) if r.healthy]
        if not replicas:
            return float("inf")
        return sum(self.outstanding.get(r.name, 0) for r in replicas) / len(replicas)

    def _pick_cluster(self) -> Optional[str]:
        """Prefer the local cluster; spill to the lightest remote one when
        the local cluster looks saturated."""
        local_load = self._cluster_load(self.region)
        if local_load <= self.spill_threshold:
            if self._clusters.get(self.region):
                return self.region
        candidates = {
            region: self._cluster_load(region)
            for region in self._clusters
            if any(r.healthy for r in self._clusters[region])
        }
        if not candidates:
            return None
        return min(candidates, key=lambda region: (candidates[region], region))

    def _pick_replica(self, region: str) -> Optional[ReplicaServer]:
        replicas = [r for r in self._clusters.get(region, []) if r.healthy]
        if not replicas:
            return None
        cursor = self._cursors.get(region, 0)
        replica = replicas[cursor % len(replicas)]
        self._cursors[region] = cursor + 1
        return replica

    # ------------------------------------------------------------------
    def select_replica(
        self, request: Request, candidates: List[ReplicaServer]
    ) -> Optional[ReplicaServer]:
        cluster = self._pick_cluster()
        if cluster is None:
            return None
        return self._pick_replica(cluster)

    def _note_dispatch(self, request: Request, replica: ReplicaServer) -> None:
        if replica.region != self.region:
            self.spilled_requests += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        clusters = {region: len(reps) for region, reps in self._clusters.items()}
        return f"<GatewayBalancer {self.name} clusters={clusters}>"
