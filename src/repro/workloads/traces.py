"""Containers and statistics for regional traffic traces.

A :class:`RegionalTrace` holds per-region hourly request counts and exposes
the aggregate statistics the paper uses to motivate cross-region load
balancing: per-region peak-to-trough variance, the aggregated global curve,
and the number of replicas each provisioning strategy would need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["RegionalTrace"]


@dataclass
class RegionalTrace:
    """Per-region time series of request counts (one entry per hour)."""

    hourly_counts: Dict[str, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(series) for series in self.hourly_counts.values()}
        if len(lengths) > 1:
            raise ValueError("all regions must cover the same number of hours")

    # ------------------------------------------------------------------
    @property
    def regions(self) -> List[str]:
        return list(self.hourly_counts)

    @property
    def num_hours(self) -> int:
        if not self.hourly_counts:
            return 0
        return len(next(iter(self.hourly_counts.values())))

    def series(self, region: str) -> List[int]:
        return list(self.hourly_counts[region])

    # ------------------------------------------------------------------
    def aggregate(self) -> List[int]:
        """Hourly totals across all regions (the Fig. 3a aggregated curve)."""
        totals = [0] * self.num_hours
        for series in self.hourly_counts.values():
            for hour, value in enumerate(series):
                totals[hour] += value
        return totals

    def region_peak(self, region: str) -> int:
        return max(self.hourly_counts[region])

    def region_trough(self, region: str) -> int:
        return min(self.hourly_counts[region])

    def peak_to_trough_ratio(self, region: str) -> float:
        """How much a single region's demand swings over the day."""
        trough = max(1, self.region_trough(region))
        return self.region_peak(region) / trough

    def aggregated_peak(self) -> int:
        return max(self.aggregate()) if self.num_hours else 0

    def aggregated_peak_to_trough_ratio(self) -> float:
        totals = self.aggregate()
        if not totals:
            return 1.0
        return max(totals) / max(1, min(totals))

    def sum_of_region_peaks(self) -> int:
        """Capacity a region-local deployment must provision for (sum of
        independent per-region peaks)."""
        return sum(self.region_peak(region) for region in self.regions)

    def total_requests(self) -> int:
        return sum(sum(series) for series in self.hourly_counts.values())

    # ------------------------------------------------------------------
    def required_replicas(self, requests_per_replica_hour: float) -> Dict[str, int]:
        """Replicas needed per provisioning strategy.

        Returns a mapping with three strategies:

        * ``region_local`` -- sum over regions of ceil(region peak / capacity),
        * ``aggregated`` -- ceil(global peak / capacity), the SkyWalker pool,
        * ``on_demand_hours`` -- replica-hours under perfect autoscaling
          (sum over hours of ceil(demand / capacity)).
        """
        if requests_per_replica_hour <= 0:
            raise ValueError("requests_per_replica_hour must be positive")

        def replicas_for(load: float) -> int:
            return int(-(-load // requests_per_replica_hour))  # ceil division

        region_local = sum(
            replicas_for(self.region_peak(region)) for region in self.regions
        )
        aggregated = replicas_for(self.aggregated_peak())
        on_demand_hours = 0
        for hour in range(self.num_hours):
            demand = sum(self.hourly_counts[region][hour] for region in self.regions)
            on_demand_hours += replicas_for(demand)
        return {
            "region_local": region_local,
            "aggregated": aggregated,
            "on_demand_hours": on_demand_hours,
        }

    def subset(self, regions: Sequence[str]) -> "RegionalTrace":
        return RegionalTrace(
            hourly_counts={region: list(self.hourly_counts[region]) for region in regions}
        )
