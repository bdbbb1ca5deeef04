"""Fig. 10: SkyWalker vs region-local deployment under regionally skewed load.

The paper emulates US working hours: 120 clients in the US versus 40 each in
Europe and Asia, and sweeps the total replica count (evenly split across the
three regions).  SkyWalker's cross-region offloading lets the US spill its
excess load into the underused regions, so it reaches a given throughput
with fewer replicas -- the paper's 9-replica SkyWalker matches the
12-replica region-local deployment, a 25 % cost reduction.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Dict, Optional, Sequence

from ..faults import FaultsLike
from ..metrics import LatencySummary, RunMetrics
from ..workloads import ARENA_LIKE, ConversationConfig, ConversationWorkload
from .config import ClusterConfig, ExperimentConfig, WorkloadSpec
from .registry import REGISTRY
from .runner import SweepResult, metric_ratio, run_experiment
from .sweep import SweepExecutor, SweepTask, normalise_seeds

__all__ = [
    "build_skewed_workload",
    "run_diurnal_sweep",
    "fleet_runs",
    "speedup_at",
    "replicas_meeting_slo",
    "slo_cost_reduction",
]

_REGIONS = ("us", "eu", "asia")


def _fleet_workload(workload: WorkloadSpec, total_replicas: int) -> WorkloadSpec:
    """Name the sweep row of one fleet size, e.g. ``regionally-skewed@9``.

    Fig. 10's cells are (system, fleet size), so each fleet size gets its
    own workload row of the :class:`SweepResult`.  The name is display-only:
    the programs are shared, and :func:`fleet_runs` is the only reader.
    """
    return replace(workload, name=f"{workload.name}@{total_replicas}")


def fleet_runs(result: SweepResult, system: str) -> Dict[int, RunMetrics]:
    """Base-seed runs of ``system`` (``"skywalker"`` or ``"region-local"``)
    keyed by total replica count, in sweep order."""
    return {
        int(workload.rpartition("@")[2]): result.get(workload, system)
        for workload in result.workloads()
    }


def speedup_at(result: SweepResult, replicas: int) -> float:
    """SkyWalker throughput over region-local at equal replica count."""
    return metric_ratio(
        fleet_runs(result, "skywalker")[replicas], fleet_runs(result, "region-local")[replicas]
    )


def replicas_meeting_slo(result: SweepResult, system: str, ttft_p90_slo_s: float,
                         region: Optional[str] = "us") -> Optional[int]:
    """Smallest fleet whose (optionally per-region) p90 TTFT meets an SLO.

    The overloaded region's tail latency is what forces region-local
    deployments to over-provision; SkyWalker meets the same SLO with
    fewer replicas by spilling that region's excess load elsewhere.
    """
    runs = fleet_runs(result, system)
    for count in sorted(runs):
        metrics = runs[count]
        key = f"{region}_ttft_p90"
        value = metrics.extra.get(key, metrics.ttft.p90) if region else metrics.ttft.p90
        if value <= ttft_p90_slo_s:
            return count
    return None


def slo_cost_reduction(result: SweepResult, ttft_p90_slo_s: float,
                       region: str = "us") -> Optional[float]:
    """Fractional replica (and thus reserved-cost) saving at equal SLO."""
    sky = replicas_meeting_slo(result, "skywalker", ttft_p90_slo_s, region)
    local = replicas_meeting_slo(result, "region-local", ttft_p90_slo_s, region)
    if sky is None or local is None or local == 0:
        return None
    return 1.0 - sky / local


def build_skewed_workload(scale: float = 1.0, *, seed: int = 5,
                          conversations_per_client: int = 3) -> WorkloadSpec:
    """US-peak-hours workload: 120 US clients, 40 each in Europe and Asia.

    Conversations follow the ChatBot-Arena length profile (shorter prompts
    than WildChat) so that the US region's overload is dominated by demand
    rather than by individual giant prompts.
    """
    clients = {
        "us": max(1, int(round(120 * scale))),
        "eu": max(1, int(round(40 * scale))),
        "asia": max(1, int(round(40 * scale))),
    }
    programs_by_region = {}
    for region, count in clients.items():
        config = ConversationConfig(
            regions=(region,),
            users_per_region=count,
            conversations_per_user=conversations_per_client,
            turns_range=(2, 4),
            lengths=ARENA_LIKE,
            # crc32, not hash(): built-in str hashing is salted per process
            # (PYTHONHASHSEED), which would make "same seed, same workload"
            # false across invocations.
            seed=seed + zlib.crc32(region.encode("utf-8")) % 997,
        )
        programs_by_region[region] = ConversationWorkload(config).generate_programs()
    return WorkloadSpec(
        name="regionally-skewed",
        programs_by_region=programs_by_region,
        clients_per_region=clients,
        hash_key="user",
    )


def _run_diurnal_cell(task: SweepTask) -> RunMetrics:
    """Run one Fig. 10 cell, annotating per-region tail latency.

    Module-level so :meth:`SweepExecutor.map` can ship it to a worker
    process; the per-region percentiles have to be computed here because
    only the worker sees the tracker's completion columns.
    """
    outcome = run_experiment(task.config, task.workload.fresh_copy())
    metrics = outcome.metrics
    # Per-region tail latency: the overloaded (US) region is the one
    # a region-local deployment must over-provision for.
    for region in _REGIONS:
        ttfts = outcome.tracker.region_values(outcome.tracker.ttft, region)
        if ttfts:
            summary = LatencySummary.from_values(ttfts)
            metrics.extra[f"{region}_ttft_p90"] = summary.p90
            metrics.extra[f"{region}_ttft_p50"] = summary.p50
    return metrics


def run_diurnal_sweep(
    *,
    replica_counts: Sequence[int] = (3, 6, 9, 12, 15, 18),
    scale: float = 0.2,
    duration_s: float = 120.0,
    seeds: Sequence[int] = (5,),
    workers: int = 1,
    faults: FaultsLike = None,
) -> SweepResult:
    """Sweep total replica counts for SkyWalker and the region-local baseline.

    The result has one workload row per fleet size (see
    :func:`fleet_runs`) and the two systems as columns.  ``seeds=[...]``
    repeats the whole sweep with a freshly built skewed workload per seed
    (``seeds[0]`` is the base seed); the per-seed runs feed
    :meth:`SweepResult.aggregate`.  ``workers`` > 1 distributes the (kind,
    replica count, seed) cells over that many worker processes; results
    are identical to the serial sweep for the same seeds.  ``faults``
    applies one deterministic fault schedule to every cell (e.g. to ask
    how many replicas each design needs when a balancer dies mid-peak).
    """
    for total in replica_counts:
        if total % len(_REGIONS) != 0:
            raise ValueError("replica counts must be divisible by the number of regions")
    seed_list = normalise_seeds(seeds)
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                system=REGISTRY.spec(kind, hash_key="user"),
                cluster=ClusterConfig(
                    replicas_per_region={region: total // len(_REGIONS) for region in _REGIONS}
                ),
                duration_s=duration_s,
                seed=cell_seed,
                faults=faults,
            ),
            workload=_fleet_workload(workload, total),
        )
        for cell_seed in seed_list
        for workload in [build_skewed_workload(scale=scale, seed=cell_seed)]
        for total in replica_counts
        for kind in ("skywalker", "region-local")
    ]
    result = SweepResult()
    for metrics in SweepExecutor(workers=workers).map(_run_diurnal_cell, tasks):
        result.add(metrics)
    return result
