"""End-to-end experiment runner.

``run_experiment`` builds the whole stack -- network, replicas, the selected
load-balancing system, clients -- runs the simulation for the configured
duration and aggregates metrics.  It is the single entry point used by the
examples, the test-suite's integration tests, every Fig. 8/9/10 bench and
the streamed diurnal day of the engine macrobench.

System construction is dispatched through the pluggable system registry
(:mod:`repro.experiments.registry`): the ``system`` field of an
:class:`ExperimentConfig` is a registered typed spec
(:class:`~repro.experiments.registry.SystemSpec`).  ``run_sweep`` sweeps a
list of system variants over workloads, building each workload once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cluster import (
    ClosedLoopClient,
    Deployment,
    Frontend,
    ReplicaSpec,
    RequestTracker,
    TraceReplayClient,
)
from ..core.interface import BalancerBase
from ..faults import FaultInjector, FaultsLike, resolve_fault_schedule
from ..metrics import (
    AGGREGATED_METRICS,
    AggregateMetrics,
    RunMetrics,
    Statistic,
    SweepReport,
    collect_memory_metrics,
    collect_run_metrics,
    paired_difference,
)
from ..net import Network, build_routed_network
from ..network import default_topology
from ..sim import Environment
from .config import ClusterConfig, ExperimentConfig, WorkloadSpec
from .registry import REGISTRY, BuildContext, SystemSpec

__all__ = [
    "ExperimentResult",
    "SweepResult",
    "metric_ratio",
    "run_experiment",
    "run_sweep",
    "build_system",
]

@dataclass
class ExperimentResult:
    """Everything a caller might want to inspect after a run."""

    metrics: RunMetrics
    deployment: Deployment
    balancers: List[BalancerBase]
    tracker: RequestTracker
    frontend: Frontend
    env: Environment
    #: Set when the run had a non-empty fault schedule.
    injector: Optional[FaultInjector] = None

    @property
    def controller(self):
        """The :class:`~repro.core.controller.ServiceController` driving
        balancer failover, when the fault injector started one."""
        return self.injector.controller if self.injector is not None else None


def build_system(
    system: SystemSpec,
    env: Environment,
    network: Network,
    deployment: Deployment,
    frontend: Frontend,
    *,
    client_regions: Sequence[str] = (),
    hash_key: Optional[str] = None,
    push_transfer=None,
) -> List[BalancerBase]:
    """Instantiate the requested load-balancing system via the registry and
    register it with the frontend.  Returns the created balancer objects.

    A spec's explicit ``hash_key`` overrides the workload's natural key.
    ``push_transfer`` (a :class:`~repro.mem.TransferModel`, from
    ``MemoryConfig.push_*``) is installed here on every balancer the builder
    returns, so every dispatch pays its pushed KV prefix's transfer time;
    ``None`` keeps pushes free."""
    ctx = BuildContext(
        env=env,
        network=network,
        deployment=deployment,
        frontend=frontend,
        client_regions=tuple(client_regions),
        hash_key=system.hash_key or hash_key or "user",
    )
    balancers = REGISTRY.build(system, ctx)
    for balancer in balancers:
        balancer.push_transfer = push_transfer
    return balancers


def run_experiment(config: ExperimentConfig, workload: WorkloadSpec) -> ExperimentResult:
    """Build the full stack, run it and collect metrics."""
    env = Environment()
    topology = default_topology()
    network = build_routed_network(
        env,
        config.cluster.network,
        topology,
        jitter_fraction=config.network_jitter,
        seed=config.seed,
        default_kv_bytes_per_token=config.cluster.profile.kv_bytes_per_token,
    )

    specs = [
        ReplicaSpec(region=region, count=count, profile=config.cluster.profile)
        for region, count in config.cluster.replicas_per_region.items()
        if count > 0
    ]
    memory = config.cluster.memory
    deployment = Deployment(
        env,
        specs,
        topology=topology,
        network=network,
        memory=memory,
        record_utilization=config.cluster.record_utilization,
    )

    tracker = RequestTracker(env)
    for replica in deployment.replicas:
        replica.add_completion_listener(tracker.complete)
        if network.contention_enabled and network.model_responses:
            # Finished responses become phantom reverse-path transfers so
            # they share contended WAN edges with pushes.
            replica.add_completion_listener(network.stream_response)

    frontend = Frontend(env, network)
    balancers = build_system(
        config.system,
        env,
        network,
        deployment,
        frontend,
        client_regions=workload.client_regions,
        hash_key=workload.hash_key,
        push_transfer=memory.push_transfer(config.cluster.profile.kv_bytes_per_token),
    )

    # Fault injection: only a non-empty schedule creates any machinery at
    # all, so faults=None (and the empty schedule) keep the simulation's
    # event sequence byte-identical to the historical fault-free path.
    # Stochastic descriptions compile to a concrete schedule here, from the
    # run's own duration and seed -- a compiled-empty one (nothing fired
    # within the horizon) is treated exactly like no schedule at all.
    injector: Optional[FaultInjector] = None
    schedule = resolve_fault_schedule(config.faults)
    if schedule is not None:
        schedule = schedule.compile(duration_s=config.duration_s, seed=config.seed)
    if schedule is not None and not schedule.is_empty:
        injector = FaultInjector(
            env,
            schedule,
            network=network,
            deployment=deployment,
            frontend=frontend,
            balancers=balancers,
            tracker=tracker,
        )
        injector.start()

    clients: List[ClosedLoopClient | TraceReplayClient] = []
    for region, num_clients in workload.clients_per_region.items():
        programs = workload.programs_by_region.get(region, [])
        if not programs or num_clients <= 0:
            continue
        for index in range(num_clients):
            chunk = programs[index::num_clients]
            if not chunk:
                continue
            clients.append(
                ClosedLoopClient(
                    env,
                    name=f"{region}/client-{index}",
                    region=region,
                    frontend=frontend,
                    tracker=tracker,
                    programs=chunk,
                )
            )
    for region, timed_requests in workload.timed_requests_by_region.items():
        clients.append(
            TraceReplayClient(
                env,
                name=f"{region}/replay",
                region=region,
                frontend=frontend,
                tracker=tracker,
                timed_requests=timed_requests,
            )
        )

    env.run(until=config.duration_s)

    issued = sum(client.issued_requests for client in clients)
    metrics = collect_run_metrics(
        system=config.system.name,
        workload=workload.name,
        duration_s=config.duration_s,
        tracker=tracker,
        issued=issued,
        deployment=deployment,
    )
    metrics.seed = config.seed
    if injector is not None:
        metrics.resilience = injector.resilience_metrics(duration_s=config.duration_s)
    if memory.telemetry_enabled:
        metrics.memory = collect_memory_metrics(deployment, balancers)
    return ExperimentResult(
        metrics=metrics,
        deployment=deployment,
        balancers=balancers,
        tracker=tracker,
        frontend=frontend,
        env=env,
        injector=injector,
    )


@dataclass
class SweepResult:
    """Metrics for every (workload, system, seed) cell of a sweep.

    Every run lives in :attr:`seed_runs`; :attr:`runs` is the read-only
    base-seed view (the first seed added per cell, which the drivers make
    the first entry of their seeds list).  The statistical layer on top --
    mean, stdev, 95% CI per metric -- comes from :meth:`aggregate` /
    :meth:`report`.  The Fig. 8/9/10 drivers return one too; each
    figure's own questions are functions in its driver module.
    """

    #: Per-seed runs: ``seed_runs[workload][system][seed]``.
    seed_runs: Dict[str, Dict[str, Dict[int, RunMetrics]]] = field(default_factory=dict)

    def add(self, metrics: RunMetrics) -> None:
        """Store one run under its recorded seed (``run_experiment`` stamps it)."""
        if metrics.seed is None:
            raise ValueError(
                f"run {metrics.system!r} on {metrics.workload!r} records no seed; "
                "only run_experiment's metrics can be added"
            )
        self.seed_runs.setdefault(metrics.workload, {}).setdefault(metrics.system, {})[
            metrics.seed
        ] = metrics

    @property
    def runs(self) -> Dict[str, Dict[str, RunMetrics]]:
        """Base-seed view: ``runs[workload][system]`` in sweep order."""
        return {
            workload: {system: next(iter(per_seed.values())) for system, per_seed in row.items()}
            for workload, row in self.seed_runs.items()
        }

    def workloads(self) -> List[str]:
        return list(self.seed_runs)

    def systems(self, workload: str) -> List[str]:
        return list(self.seed_runs[workload])

    def _cell(self, workload: str, system: str) -> Dict[int, RunMetrics]:
        if workload not in self.seed_runs:
            raise ValueError(f"unknown workload {workload!r}; known: {self.workloads()}")
        row = self.seed_runs[workload]
        if system not in row:
            raise ValueError(
                f"unknown system {system!r} on workload {workload!r}; known: {list(row)}"
            )
        return row[system]

    def get(self, workload: str, system: str, seed: Optional[int] = None) -> RunMetrics:
        """One cell's metrics: the base-seed run, or a specific seed's.  An
        unknown workload, system or seed raises a ValueError naming the
        known ones."""
        per_seed = self._cell(workload, system)
        if seed is None:
            return next(iter(per_seed.values()))
        if seed not in per_seed:
            raise ValueError(
                f"unknown seed {seed!r} for {system!r} on {workload!r}; known: {list(per_seed)}"
            )
        return per_seed[seed]

    def runs_for(self, workload: str, system: str) -> Dict[int, RunMetrics]:
        """All per-seed runs of one cell, keyed by seed (insertion order ==
        the order of the sweep's seeds list).  An unknown workload or system
        raises a ValueError naming the known ones."""
        return dict(self._cell(workload, system))

    def seeds(self) -> List[int]:
        """Every seed seen across the sweep, in first-seen order."""
        ordered: Dict[int, None] = {}
        for row in self.seed_runs.values():
            for per_seed in row.values():
                for seed in per_seed:
                    ordered.setdefault(seed, None)
        return list(ordered)

    # -- statistics ----------------------------------------------------
    def aggregate(self, workload: str, system: str) -> AggregateMetrics:
        """Mean/stdev/95%-CI aggregation of one cell across its seeds (a
        single-seed cell gives n=1 and no interval)."""
        per_seed = self._cell(workload, system)
        return AggregateMetrics.from_runs(list(per_seed.values()), seeds=list(per_seed))

    def report(self) -> SweepReport:
        """Text-table / JSON report of every cell's aggregate statistics."""
        report = SweepReport()
        for workload in self.workloads():
            for system in self.systems(workload):
                report.add(self.aggregate(workload, system))
        return report

    def paired_diff(
        self,
        workload: str,
        system_a: str,
        system_b: str,
        metric: str = "throughput_tokens_per_s",
    ) -> Statistic:
        """Per-seed paired difference ``metric(a) - metric(b)`` of two
        systems on one workload (positive ``ci_low`` means ``system_a``
        beats ``system_b`` at the 95% level).  Pairing needs the same
        seeds on both sides."""
        return paired_difference(
            self.runs_for(workload, system_a), self.runs_for(workload, system_b), metric
        )


def metric_ratio(
    run: RunMetrics, baseline: RunMetrics, metric: str = "throughput_tokens_per_s"
) -> float:
    """``metric(run) / metric(baseline)`` for any :data:`AGGREGATED_METRICS` name.

    The one ratio rule behind every figure's speedup: a zero baseline (an
    empty run) raises a :class:`ValueError` naming that run instead of
    yielding ``inf`` or being skipped.
    """
    extract = AGGREGATED_METRICS[metric]
    base = extract(baseline)
    if base == 0:
        raise ValueError(
            f"run {baseline.system!r} on {baseline.workload!r} has zero {metric}; "
            "cannot compute a ratio over an empty run"
        )
    return extract(run) / base


def run_sweep(
    systems: Sequence[SystemSpec],
    workloads: Sequence[WorkloadSpec],
    *,
    cluster: Optional[ClusterConfig] = None,
    duration_s: float = 120.0,
    seeds: Sequence[int] = (0,),
    network_jitter: float = 0.05,
    workers: int = 1,
    faults: FaultsLike = None,
) -> SweepResult:
    """Run every system variant against every workload (and seed).

    Each workload is built **once** by the caller and replayed across the
    system variants via :meth:`WorkloadSpec.fresh_copy`, so variants see
    identical traffic without paying workload generation per run (and
    without sharing mutable request state).

    ``seeds=[a, b, c]`` runs every (workload, system) cell under each
    seed: per-seed runs land in :attr:`SweepResult.seed_runs`, the first
    seed is each cell's base-seed run, and :meth:`SweepResult.aggregate`
    reports mean/stdev/95% CI per metric.
    Because the workloads are pre-built, the per-seed variation is the
    simulation/network randomness; drivers that also want per-seed
    *traffic* (the macro and pushing benchmarks) rebuild their workloads
    per seed and go through :meth:`SweepExecutor.run_cells`.

    ``workers`` > 1 runs the (workload, system, seed) cells in that many
    worker processes via :class:`~repro.experiments.sweep.SweepExecutor`;
    results are bit-identical to the serial path for the same seeds,
    parallelism only buys wall-clock.

    ``faults`` injects a deterministic fault schedule (a
    :class:`~repro.faults.FaultSchedule` or a registered schedule name,
    resolved inside the workers) into **every** cell, turning the sweep
    into a resilience comparison: each run gains ``metrics.resilience``
    (outage goodput, time to recovery, per-phase tail latency).
    ``faults=None`` and the empty schedule are bit-identical to the
    historical fault-free sweep.

    Results are indexed by each system's display name, so variants of the
    same kind must be disambiguated with ``label`` (otherwise later runs
    would silently overwrite earlier ones).
    """
    from .sweep import SweepExecutor  # deferred: sweep imports this module

    return SweepExecutor(workers=workers).run(
        systems,
        workloads,
        cluster=cluster,
        duration_s=duration_s,
        seeds=seeds,
        network_jitter=network_jitter,
        faults=faults,
    )
