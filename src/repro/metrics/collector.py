"""End-of-run metric aggregation.

:func:`collect_run_metrics` turns the raw artefacts of a simulation run --
the completed requests plus the deployment's counters -- into the numbers
the paper's evaluation reports: service throughput (tokens/s), TTFT and
end-to-end latency distributions, prefix-cache hit rate, load-imbalance
variance and cross-region traffic fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..cluster.deployment import Deployment
from ..workloads.request import Request
from .memory import MemoryMetrics
from .resilience import ResilienceMetrics
from .summary import LatencySummary

__all__ = ["RunMetrics", "collect_run_metrics"]


@dataclass
class RunMetrics:
    """Everything a benchmark needs to report about one run."""

    system: str
    workload: str
    duration_s: float
    num_completed: int
    num_issued: int

    #: Served tokens (prompt + generated of completed requests) per second;
    #: this is the "service throughput (token/s)" of Fig. 8.
    throughput_tokens_per_s: float
    #: Generated (output) tokens per second.
    output_tokens_per_s: float
    requests_per_s: float

    ttft: LatencySummary
    e2e_latency: LatencySummary
    #: First LB arrival to the *last* batch admission, so a request preempted
    #: after its first token counts its preemption here
    #: (:attr:`Request.queueing_delay`).
    queueing_delay: LatencySummary

    #: Fleet-wide token-level prefix cache hit rate.
    cache_hit_rate: float
    #: Fraction of completed requests served outside their origin region.
    cross_region_fraction: float
    #: Fraction of completed requests that were forwarded LB-to-LB.
    forwarded_fraction: float
    #: max/min ratio of per-replica completed-request counts (load imbalance).
    replica_load_imbalance: float
    #: max/min ratio of per-replica peak memory utilisation, when recorded.
    peak_memory_imbalance: Optional[float] = None

    per_replica_completed: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    #: Host wall-clock seconds the cell took to simulate (set by the sweep
    #: executor in both serial and worker-process modes).  Deliberately NOT
    #: part of :meth:`to_dict`: host timing is machine noise, and to_dict is
    #: the payload the serial-vs-parallel bit-identity checks compare.
    wall_clock_s: Optional[float] = None

    #: The seed this run was simulated with (set by the sweep executor so
    #: multi-seed sweeps can group per-seed runs for aggregation).  Also
    #: excluded from :meth:`to_dict`: the single-seed payload must stay
    #: bit-identical to runs that predate seed recording, and the
    #: seeds=[s] ≡ seed=s equivalence compares runs whose only difference
    #: would otherwise be this bookkeeping field.
    seed: Optional[int] = None

    #: Fault-run outcome (outage goodput, time to recovery, per-phase tail
    #: latency, ...); set by the experiment runner only when the run had a
    #: non-empty fault schedule.  Included in :meth:`to_dict` only when
    #: present, so zero-fault payloads stay bit-identical to runs that
    #: predate fault injection -- while faulted runs *do* compare it in the
    #: serial-vs-parallel identity checks.
    resilience: Optional[ResilienceMetrics] = None

    #: Tiered KV-memory telemetry (per-tier hit rates, promotion/demotion
    #: bytes, page occupancy, transfer stalls); set by the experiment runner
    #: only when the run used a telemetry-enabled
    #: :class:`~repro.mem.MemoryConfig`.  Included in :meth:`to_dict` only
    #: when present, for the same bit-identity reason as ``resilience``.
    memory: Optional[MemoryMetrics] = None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "system": self.system,
            "workload": self.workload,
            "duration_s": self.duration_s,
            "num_completed": self.num_completed,
            "num_issued": self.num_issued,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "output_tokens_per_s": self.output_tokens_per_s,
            "requests_per_s": self.requests_per_s,
            "ttft": self.ttft.to_dict(),
            "e2e_latency": self.e2e_latency.to_dict(),
            "queueing_delay": self.queueing_delay.to_dict(),
            "cache_hit_rate": self.cache_hit_rate,
            "cross_region_fraction": self.cross_region_fraction,
            "forwarded_fraction": self.forwarded_fraction,
            "replica_load_imbalance": self.replica_load_imbalance,
            "peak_memory_imbalance": self.peak_memory_imbalance,
            "extra": dict(self.extra),
        }
        if self.resilience is not None:
            payload["resilience"] = self.resilience.to_dict()
        if self.memory is not None:
            payload["memory"] = self.memory.to_dict()
        return payload

    def format_row(self) -> str:
        """One human-readable results row (used by the bench harness)."""
        return (
            f"{self.system:<16} {self.workload:<12} "
            f"tput={self.throughput_tokens_per_s:8.1f} tok/s  "
            f"ttft p50={self.ttft.p50:6.3f}s p90={self.ttft.p90:6.3f}s  "
            f"e2e p50={self.e2e_latency.p50:6.2f}s  "
            f"hit={self.cache_hit_rate * 100:5.1f}%  "
            f"completed={self.num_completed}"
        )


def _imbalance_ratio(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if len(positive) < 2:
        return 1.0
    return max(positive) / min(positive)


def collect_run_metrics(
    *,
    system: str,
    workload: str,
    duration_s: float,
    completed: Sequence[Request],
    issued: int,
    deployment: Deployment,
) -> RunMetrics:
    """Aggregate a finished run into a :class:`RunMetrics` record."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")

    served_tokens = sum(r.prompt_len + r.generated_tokens for r in completed)
    output_tokens = sum(r.generated_tokens for r in completed)

    ttfts = [r.ttft for r in completed if r.ttft is not None]
    e2es = [r.e2e_latency for r in completed if r.e2e_latency is not None]
    queueing = [r.queueing_delay for r in completed if r.queueing_delay is not None]

    cross_region = [
        r for r in completed if r.serving_region is not None and r.serving_region != r.region
    ]
    forwarded = [r for r in completed if r.forward_hops > 0]

    per_replica: Dict[str, int] = {}
    for request in completed:
        if request.replica_name:
            per_replica[request.replica_name] = per_replica.get(request.replica_name, 0) + 1

    peak_memory_imbalance: Optional[float] = None
    peaks = [
        max((u for _, u in replica.stats.utilization_samples), default=0.0)
        for replica in deployment.replicas
        if replica.stats.utilization_samples
    ]
    if len(peaks) >= 2:
        peak_memory_imbalance = _imbalance_ratio(peaks)

    return RunMetrics(
        system=system,
        workload=workload,
        duration_s=duration_s,
        num_completed=len(completed),
        num_issued=issued,
        throughput_tokens_per_s=served_tokens / duration_s,
        output_tokens_per_s=output_tokens / duration_s,
        requests_per_s=len(completed) / duration_s,
        ttft=LatencySummary.from_values(ttfts),
        e2e_latency=LatencySummary.from_values(e2es),
        queueing_delay=LatencySummary.from_values(queueing),
        cache_hit_rate=deployment.aggregate_cache_hit_rate(),
        cross_region_fraction=len(cross_region) / len(completed) if completed else 0.0,
        forwarded_fraction=len(forwarded) / len(completed) if completed else 0.0,
        replica_load_imbalance=_imbalance_ratio(list(per_replica.values())),
        peak_memory_imbalance=peak_memory_imbalance,
        per_replica_completed=per_replica,
    )
