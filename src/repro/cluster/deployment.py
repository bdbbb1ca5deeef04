"""Multi-region deployment description and construction helpers.

A :class:`Deployment` turns a declarative list of :class:`ReplicaSpec`
entries into live :class:`ReplicaServer` instances attached to a simulation
environment, and keeps the region->replica index every load balancer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..mem import MemoryConfig
from ..net import Network
from ..network import NetworkTopology, default_topology
from ..replica import LLAMA_8B_L4, ModelProfile, ReplicaServer
from ..sim import Environment
from .pricing import G6_XLARGE, InstancePricing

__all__ = ["ReplicaSpec", "Deployment"]


@dataclass(frozen=True)
class ReplicaSpec:
    """How many replicas of which profile to deploy in one region."""

    region: str
    count: int
    profile: ModelProfile = LLAMA_8B_L4
    instance: InstancePricing = G6_XLARGE


class Deployment:
    """All replicas of a multi-region serving deployment.

    Parameters
    ----------
    env, topology, network:
        Simulation environment and network substrate.  A network is created
        from the topology if not supplied.
    specs:
        One :class:`ReplicaSpec` per (region, profile) group.
    memory / record_utilization:
        Forwarded to every replica.
    """

    def __init__(
        self,
        env: Environment,
        specs: Sequence[ReplicaSpec],
        *,
        topology: Optional[NetworkTopology] = None,
        network: Optional[Network] = None,
        memory: MemoryConfig = MemoryConfig(),
        record_utilization: bool = False,
    ) -> None:
        self.env = env
        self.topology = topology or default_topology()
        self.network = network or Network(env, self.topology)
        self.specs = list(specs)
        self.replicas: List[ReplicaServer] = []
        self._by_region: Dict[str, List[ReplicaServer]] = {}
        self._instance_of: Dict[str, InstancePricing] = {}
        for spec in self.specs:
            self.topology.info(spec.region)  # validate
            for index in range(spec.count):
                name = f"{spec.region}/replica-{len(self._by_region.get(spec.region, []))}"
                replica = ReplicaServer(
                    env,
                    name,
                    spec.region,
                    spec.profile,
                    memory=memory,
                    record_utilization=record_utilization,
                )
                self.replicas.append(replica)
                self._by_region.setdefault(spec.region, []).append(replica)
                self._instance_of[name] = spec.instance

    # ------------------------------------------------------------------
    @property
    def regions(self) -> List[str]:
        """Regions that host at least one replica."""
        return list(self._by_region)

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def replicas_in(self, region: str) -> List[ReplicaServer]:
        """Replicas deployed in ``region`` (empty list if none)."""
        return list(self._by_region.get(region, ()))

    # ------------------------------------------------------------------
    def hourly_cost(self, commitment: str = "reserved_3yr") -> float:
        """Total fleet cost per hour under a commitment level."""
        return sum(
            self._instance_of[replica.name].hourly(commitment) for replica in self.replicas
        )

    def aggregate_cache_hit_rate(self) -> float:
        """Token-weighted prefix cache hit rate over the whole fleet."""
        total_prompt = sum(r.batcher.total_prompt_tokens for r in self.replicas)
        total_cached = sum(r.batcher.total_cached_tokens for r in self.replicas)
        if total_prompt == 0:
            return 0.0
        return total_cached / total_prompt

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        per_region = {region: len(reps) for region, reps in self._by_region.items()}
        return f"<Deployment {per_region}>"
