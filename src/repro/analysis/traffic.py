"""Traffic aggregation analysis (Fig. 2 and Fig. 3a).

Quantifies the paper's motivating observation: per-region demand swings by
large factors over a day, but the aggregated global demand is much flatter,
so a shared pool provisioned for the aggregated peak needs far less capacity
than independently provisioned regional pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..workloads.traces import RegionalTrace

__all__ = ["AggregationAnalysis", "analyze_aggregation"]


@dataclass(frozen=True)
class AggregationAnalysis:
    """Summary statistics of regional vs aggregated demand."""

    per_region_peak_to_trough: Dict[str, float]
    aggregated_peak_to_trough: float
    per_region_peaks: Dict[str, int]
    aggregated_peak: int
    sum_of_region_peaks: int

    @property
    def max_regional_variance(self) -> float:
        return max(self.per_region_peak_to_trough.values())

    @property
    def peak_reduction_fraction(self) -> float:
        """How much smaller the aggregated peak is than the sum of regional
        peaks -- the capacity a shared pool saves."""
        if self.sum_of_region_peaks == 0:
            return 0.0
        return 1.0 - self.aggregated_peak / self.sum_of_region_peaks

    def to_dict(self) -> Dict[str, object]:
        return {
            "per_region_peak_to_trough": dict(self.per_region_peak_to_trough),
            "aggregated_peak_to_trough": self.aggregated_peak_to_trough,
            "per_region_peaks": dict(self.per_region_peaks),
            "aggregated_peak": self.aggregated_peak,
            "sum_of_region_peaks": self.sum_of_region_peaks,
            "peak_reduction_fraction": self.peak_reduction_fraction,
        }


def analyze_aggregation(trace: RegionalTrace) -> AggregationAnalysis:
    """Compute the Fig. 3a statistics for a regional demand trace."""
    per_region_variance = {
        region: trace.peak_to_trough_ratio(region) for region in trace.regions
    }
    per_region_peaks = {region: trace.region_peak(region) for region in trace.regions}
    return AggregationAnalysis(
        per_region_peak_to_trough=per_region_variance,
        aggregated_peak_to_trough=trace.aggregated_peak_to_trough_ratio(),
        per_region_peaks=per_region_peaks,
        aggregated_peak=trace.aggregated_peak(),
        sum_of_region_peaks=trace.sum_of_region_peaks(),
    )
