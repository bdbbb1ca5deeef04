"""Fig. 9 micro-benchmark: blind pushing vs the two selective-pushing variants.

The paper isolates the pushing mechanism by running everything inside a
single region (no cross-region effects): 4 replicas, 30 clients, the
2-branch Tree-of-Thoughts workload, with a prefix-aware router whose pushing
policy is swapped between BP, SP-O and SP-P.

The variants are one sweep (same workload, one system spec per registered
pushing-policy name), so they run through the
:class:`~repro.experiments.sweep.SweepExecutor` and parallelise across
processes like every other sweep.  ``seeds=[...]`` repeats the ablation
with a freshly generated ToT workload per seed; the result is the
executor's :class:`~repro.experiments.runner.SweepResult`, one workload
row whose systems are the policies, so :meth:`SweepResult.aggregate`
gives each policy's mean/95%-CI statistics.
"""

from __future__ import annotations

from typing import Sequence

from ..faults import FaultsLike
from ..metrics import RunMetrics
from ..workloads import TreeOfThoughtsConfig, TreeOfThoughtsWorkload
from .config import ClusterConfig, ExperimentConfig, WorkloadSpec
from .runner import SweepResult, metric_ratio
from .sweep import SweepExecutor, SweepTask, check_unique_system_names, normalise_seeds
from .systems import SkyWalkerConfig

__all__ = [
    "run_pushing_benchmark",
    "build_single_region_tot_workload",
    "throughput_gain",
    "p90_ttft_reduction",
]

PUSHING_VARIANTS = ("BP", "SP-O", "SP-P")


def _base_run(result: SweepResult, policy: str) -> RunMetrics:
    (workload,) = result.workloads()
    return result.get(workload, policy)


def throughput_gain(result: SweepResult, over: str = "BP", policy: str = "SP-P") -> float:
    """Base-seed throughput of ``policy`` over ``over`` (paper: SP-P is
    1.27x BP and 1.4x SP-O)."""
    return metric_ratio(_base_run(result, policy), _base_run(result, over))


def p90_ttft_reduction(result: SweepResult, over: str = "BP", policy: str = "SP-P") -> float:
    """Base-seed p90 TTFT of ``over`` over that of ``policy`` (paper: SP-P
    cuts BP's by 18.47x)."""
    return metric_ratio(_base_run(result, over), _base_run(result, policy), "ttft_p90")


def build_single_region_tot_workload(
    *, region: str = "us", clients: int = 30, trees_per_client: int = 2, seed: int = 7
) -> WorkloadSpec:
    """The single-region 2-branch ToT workload used in §5.2."""
    generator = TreeOfThoughtsWorkload(
        TreeOfThoughtsConfig(branching_factor=2, depth=4, seed=seed)
    )
    programs = generator.generate_programs(clients * trees_per_client, region)
    return WorkloadSpec(
        name="tot-single-region",
        programs_by_region={region: programs},
        clients_per_region={region: clients},
        hash_key="session",
    )


def run_pushing_benchmark(
    *,
    policies: Sequence[str] = PUSHING_VARIANTS,
    replicas: int = 4,
    clients: int = 30,
    duration_s: float = 120.0,
    sp_o_threshold: int = 24,
    region: str = "us",
    seeds: Sequence[int] = (7,),
    workers: int = 1,
    faults: FaultsLike = None,
) -> SweepResult:
    """Run the BP / SP-O / SP-P comparison in one region.

    ``policies`` may name any registered pushing policy, not just the
    paper's three.  ``seeds`` repeats the ablation across seeds (a fresh
    ToT workload per seed; ``seeds[0]`` is the base seed).  ``workers`` > 1
    runs the (policy, seed) cells in parallel worker processes (identical
    metrics, less wall-clock).  ``faults`` applies one deterministic fault
    schedule to every cell.
    """
    systems = [
        SkyWalkerConfig(
            kind="skywalker",
            label=policy,
            pushing=policy,
            sp_o_threshold=sp_o_threshold,
            hash_key="session",
        )
        for policy in policies
    ]
    cluster = ClusterConfig(replicas_per_region={region: replicas})
    check_unique_system_names(systems)
    seed_list = normalise_seeds(seeds)
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                system=system,
                cluster=cluster,
                duration_s=duration_s,
                seed=cell_seed,
                faults=faults,
            ),
            workload=workload,
        )
        for cell_seed in seed_list
        for workload in [
            build_single_region_tot_workload(region=region, clients=clients, seed=cell_seed)
        ]
        for system in systems
    ]
    return SweepExecutor(workers=workers).run_cells(tasks)
