"""Provisioning cost models (§2.2, Fig. 3b; §5.2, Fig. 10).

Three provisioning strategies are compared on a daily regional demand trace:

* **On-demand autoscaling** -- the idealised strategy that, every hour, rents
  exactly the replicas needed at on-demand prices (no provisioning delay, no
  shortage risk); the paper uses this as a lower bound for what autoscaling
  could achieve and still finds it ~2.2x more expensive than aggregated
  reserved capacity.
* **Region-local reserved** -- every region independently reserves enough
  replicas for its own peak.
* **Aggregated reserved** -- one global pool reserved for the aggregated
  peak (what SkyWalker's cross-region traffic handling enables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..cluster.pricing import G6_XLARGE, InstancePricing
from ..workloads.traces import RegionalTrace

__all__ = ["ProvisioningCost", "CostModel"]


@dataclass(frozen=True)
class ProvisioningCost:
    """Daily cost (USD) of each provisioning strategy for one trace."""

    on_demand_autoscaling: float
    region_local_reserved: float
    aggregated_reserved: float
    #: Replica counts backing the reserved strategies.
    region_local_replicas: int
    aggregated_replicas: int

    @property
    def aggregation_savings_fraction(self) -> float:
        """Relative cost reduction of aggregated vs region-local reserved
        (the "40.5% reduction" annotation in Fig. 3b)."""
        if self.region_local_reserved == 0:
            return 0.0
        return 1.0 - self.aggregated_reserved / self.region_local_reserved

    @property
    def on_demand_multiplier(self) -> float:
        """How much more on-demand autoscaling costs than the aggregated pool
        (the "2.2x of Aggregated" annotation in Fig. 3b)."""
        if self.aggregated_reserved == 0:
            return float("inf")
        return self.on_demand_autoscaling / self.aggregated_reserved

    def to_dict(self) -> Dict[str, float]:
        return {
            "on_demand_autoscaling": self.on_demand_autoscaling,
            "region_local_reserved": self.region_local_reserved,
            "aggregated_reserved": self.aggregated_reserved,
            "region_local_replicas": self.region_local_replicas,
            "aggregated_replicas": self.aggregated_replicas,
            "aggregation_savings_fraction": self.aggregation_savings_fraction,
            "on_demand_multiplier": self.on_demand_multiplier,
        }


class CostModel:
    """Translates a demand trace into provisioning costs.

    Parameters
    ----------
    requests_per_replica_hour:
        Sustainable request rate of one replica (capacity planning unit).
    instance:
        Instance pricing used for all replicas.
    commitment:
        Commitment level used for the reserved strategies
        (``"reserved_3yr"`` by default, matching §2.1).
    """

    def __init__(
        self,
        requests_per_replica_hour: float,
        *,
        instance: InstancePricing = G6_XLARGE,
        commitment: str = "reserved_3yr",
    ) -> None:
        if requests_per_replica_hour <= 0:
            raise ValueError("requests_per_replica_hour must be positive")
        self.requests_per_replica_hour = requests_per_replica_hour
        self.instance = instance
        self.commitment = commitment

    # ------------------------------------------------------------------
    def replicas_for(self, hourly_demand: float) -> int:
        """Replicas needed to sustain ``hourly_demand`` requests per hour."""
        return int(math.ceil(hourly_demand / self.requests_per_replica_hour))

    def evaluate(self, trace: RegionalTrace) -> ProvisioningCost:
        """Daily cost of each provisioning strategy for ``trace``."""
        hours = trace.num_hours
        reserved_hourly = self.instance.hourly(self.commitment)
        on_demand_hourly = self.instance.hourly("on_demand")

        counts = trace.required_replicas(self.requests_per_replica_hour)
        region_local = counts["region_local"]
        aggregated = counts["aggregated"]
        on_demand_replica_hours = counts["on_demand_hours"]

        return ProvisioningCost(
            on_demand_autoscaling=on_demand_replica_hours * on_demand_hourly,
            region_local_reserved=region_local * reserved_hourly * hours,
            aggregated_reserved=aggregated * reserved_hourly * hours,
            region_local_replicas=region_local,
            aggregated_replicas=aggregated,
        )

