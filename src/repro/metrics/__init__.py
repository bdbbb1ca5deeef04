"""Metrics: latency summaries, end-of-run aggregation, multi-seed
statistics (mean / stdev / 95% CI, paired per-seed differences) and
fault-run resilience metrics (outage goodput, time to recovery, per-phase
tail latency)."""

from .aggregate import (
    AGGREGATED_METRICS,
    RESILIENCE_AGGREGATED_METRICS,
    AggregateMetrics,
    Statistic,
    SweepReport,
    paired_difference,
    student_t_critical,
)
from .collector import RunMetrics, collect_run_metrics
from .memory import MemoryMetrics, TierUsage, collect_memory_metrics
from .resilience import ResilienceMetrics, collect_resilience_metrics
from .summary import LatencySummary, percentile

__all__ = [
    "LatencySummary",
    "percentile",
    "RunMetrics",
    "collect_run_metrics",
    "ResilienceMetrics",
    "collect_resilience_metrics",
    "MemoryMetrics",
    "TierUsage",
    "collect_memory_metrics",
    "AGGREGATED_METRICS",
    "RESILIENCE_AGGREGATED_METRICS",
    "AggregateMetrics",
    "Statistic",
    "SweepReport",
    "paired_difference",
    "student_t_critical",
]
