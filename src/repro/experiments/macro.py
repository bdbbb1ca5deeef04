"""Fig. 8 macro-benchmark: throughput, TTFT and end-to-end latency of every
system on every workload.

The paper runs up to 12 single-L4 replicas across three regions with clients
in all three regions and compares GKE Gateway, Round Robin, Least Load,
Consistent Hashing, the SGLang Router and both SkyWalker variants.  The
``scale`` knob shrinks client counts and replica counts together so the same
code drives quick CI runs and full-fidelity reproductions.

``seeds=[...]`` repeats the whole grid: each seed gets its own workload
build (fresh traffic, not just fresh network jitter) and every
(workload, system, seed) cell fans out through the
:class:`~repro.experiments.sweep.SweepExecutor` process pool.  The
per-seed runs aggregate into mean/95%-CI statistics
(:meth:`SweepResult.aggregate`), which is what turns the figure's
"1.12-2.06x over the baselines" claims into interval statements.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..faults import FaultsLike
from .config import ALL_SYSTEMS, ClusterConfig
from .registry import REGISTRY
from .runner import SweepResult, metric_ratio
from .sweep import SweepExecutor, SweepTask, check_unique_system_names, normalise_seeds
from .workloads import MACRO_WORKLOAD_BUILDERS

__all__ = ["run_macro_benchmark", "default_macro_cluster", "speedup_over_baselines"]


def speedup_over_baselines(
    result: SweepResult, workload: str, system: str = "skywalker"
) -> Dict[str, float]:
    """Throughput of ``system`` relative to every other system on
    ``workload`` (paper reports 1.12-2.06x over the baselines), on the
    base-seed runs; use :meth:`SweepResult.aggregate` when an interval
    statement is needed."""
    target = result.get(workload, system)
    return {
        other: metric_ratio(target, result.get(workload, other))
        for other in result.systems(workload)
        if other != system
    }


def default_macro_cluster(scale: float = 1.0, *, record_utilization: bool = False) -> ClusterConfig:
    """The paper's 12-replica, three-region cluster (scaled)."""
    per_region = max(1, int(round(4 * scale)))
    return ClusterConfig(
        replicas_per_region={"us": per_region, "eu": per_region, "asia": per_region},
        record_utilization=record_utilization,
    )


def run_macro_benchmark(
    *,
    systems: Sequence[str] = ALL_SYSTEMS,
    workloads: Sequence[str] = ("chatbot-arena", "wildchat", "tree-of-thoughts", "mixed-tree"),
    scale: float = 0.2,
    duration_s: float = 120.0,
    cluster: Optional[ClusterConfig] = None,
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
    faults: FaultsLike = None,
) -> SweepResult:
    """Run the Fig. 8 sweep and return all metrics.

    Per seed, each workload is generated once (with that seed) and replayed
    across every system -- fresh request state per run, identical traffic
    within the seed.  ``seeds=[...]`` fans every (workload, system, seed)
    cell through the sweep executor; ``seeds=[s]`` is bit-identical to the
    single-seed ``seed=s`` run.  ``workers`` > 1 distributes the cells over
    that many processes; metrics are identical to the serial run for the
    same seeds.  ``faults`` applies one deterministic fault schedule to
    every cell, turning the macro grid into a resilience comparison (the
    Fig. 11 failover benchmark runs exactly this).
    """
    cluster = cluster or default_macro_cluster(scale)
    specs = [REGISTRY.spec(kind) for kind in systems]
    check_unique_system_names(specs)
    seed_list = normalise_seeds(seed, seeds)
    tasks = [
        SweepTask(
            system=spec,
            workload=workload,
            cluster=cluster,
            duration_s=duration_s,
            seed=cell_seed,
            faults=faults,
        )
        for cell_seed in seed_list
        for workload in [
            MACRO_WORKLOAD_BUILDERS[name](scale=scale, seed=cell_seed) for name in workloads
        ]
        for spec in specs
    ]
    return SweepExecutor(workers=workers).run_cells(tasks)
