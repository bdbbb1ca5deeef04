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
from ..core.interface import Balancer
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
from ..workloads.request import Request
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
    balancers: List[Balancer]
    tracker: RequestTracker
    frontend: Frontend
    env: Environment
    #: Set when the run had a non-empty fault schedule.
    injector: Optional[FaultInjector] = None

    @property
    def completed(self) -> List[Request]:
        return self.tracker.completed

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
) -> List[Balancer]:
    """Instantiate the requested load-balancing system via the registry and
    register it with the frontend.  Returns the created balancer objects.

    A spec's explicit ``hash_key`` overrides the workload's natural key."""
    ctx = BuildContext(
        env=env,
        network=network,
        deployment=deployment,
        frontend=frontend,
        client_regions=tuple(client_regions),
        hash_key=system.hash_key or hash_key or "user",
        push_transfer=push_transfer,
    )
    return REGISTRY.build(system, ctx)


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
        enable_prefix_cache=config.cluster.enable_prefix_cache,
        memory=memory,
        record_utilization=config.cluster.record_utilization,
    )

    tracker = RequestTracker(env, retain_completed=config.retain_completed)
    for replica in deployment.replicas:
        replica.add_completion_listener(tracker.complete)
        if network.contention_enabled and network.model_responses:
            # Finished responses become phantom reverse-path transfers so
            # they share contended WAN edges with pushes.
            replica.add_completion_listener(network.stream_response)

    push_transfer = None
    if memory is not None:
        push_transfer = memory.push_transfer(config.cluster.profile.kv_bytes_per_token)

    frontend = Frontend(env, network)
    balancers = build_system(
        config.system,
        env,
        network,
        deployment,
        frontend,
        client_regions=workload.client_regions,
        hash_key=workload.hash_key,
        push_transfer=push_transfer,
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
    if injector is not None:
        metrics.resilience = injector.resilience_metrics(duration_s=config.duration_s)
    if memory is not None and memory.telemetry_enabled:
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
    """Metrics for every (workload, system) pair of a sweep.

    Single-seed sweeps look exactly as they always have: one
    :class:`RunMetrics` per cell in :attr:`runs`.  Multi-seed sweeps
    (``seeds=[...]``) additionally keep every per-seed run in
    :attr:`seed_runs`; :attr:`runs` then holds the *base seed* (the first
    entry of the seeds list) so every legacy accessor keeps returning a
    deterministic, bit-identical-to-single-seed view.  The statistical
    layer on top -- mean, stdev, 95% CI per metric -- comes from
    :meth:`aggregate` / :meth:`report`.  The Fig. 8/9/10 drivers return
    one too; each figure's own questions are functions in its driver
    module.
    """

    runs: Dict[str, Dict[str, RunMetrics]] = field(default_factory=dict)
    #: Per-seed runs: ``seed_runs[workload][system][seed]``.  Populated by
    #: the sweep executor (which stamps ``RunMetrics.seed``); direct
    #: :meth:`add` calls with un-stamped metrics only feed :attr:`runs`.
    seed_runs: Dict[str, Dict[str, Dict[int, RunMetrics]]] = field(default_factory=dict)

    def add(self, metrics: RunMetrics) -> None:
        if metrics.seed is None:
            # Legacy path (metrics not produced by the sweep executor):
            # exactly the historical overwrite semantics, no seed tracking.
            self.runs.setdefault(metrics.workload, {})[metrics.system] = metrics
            return
        # Seed-stamped path: the first run added for a cell is its base
        # seed (the executor orders each cell's tasks seeds-first).
        self.seed_runs.setdefault(metrics.workload, {}).setdefault(metrics.system, {})[
            metrics.seed
        ] = metrics
        self.runs.setdefault(metrics.workload, {}).setdefault(metrics.system, metrics)

    def workloads(self) -> List[str]:
        return list(self.runs)

    def systems(self, workload: str) -> List[str]:
        return list(self.runs[workload])

    def get(self, workload: str, system: str, seed: Optional[int] = None) -> RunMetrics:
        """One cell's metrics: the base-seed run, or a specific seed's.  An
        unknown workload or system raises a ValueError naming the known ones."""
        if workload not in self.runs:
            raise ValueError(f"unknown workload {workload!r}; known: {self.workloads()}")
        row = self.runs[workload]
        if system not in row:
            raise ValueError(
                f"unknown system {system!r} on workload {workload!r}; known: {list(row)}"
            )
        if seed is None:
            return row[system]
        return self.seed_runs[workload][system][seed]

    def runs_for(self, workload: str, system: str) -> Dict[int, RunMetrics]:
        """All per-seed runs of one cell, keyed by seed (insertion order ==
        the order of the sweep's seeds list)."""
        return dict(self.seed_runs.get(workload, {}).get(system, {}))

    def seeds(self) -> List[int]:
        """Every seed seen across the sweep, in first-seen order."""
        ordered: Dict[int, None] = {}
        for row in self.seed_runs.values():
            for per_seed in row.values():
                for seed in per_seed:
                    ordered.setdefault(seed, None)
        return list(ordered)

    def wall_clock(
        self, workload: str, system: str, seed: Optional[int] = None
    ) -> Optional[float]:
        """Host seconds one cell took (base seed, or a specific seed's run),
        or ``None`` if it predates recording."""
        return self.get(workload, system, seed).wall_clock_s

    # -- statistics ----------------------------------------------------
    def aggregate(self, workload: str, system: str) -> AggregateMetrics:
        """Mean/stdev/95%-CI aggregation of one cell across its seeds.

        Falls back to a degenerate single-run aggregate (n=1, no interval)
        for cells without per-seed runs, so report code need not special-
        case single-seed sweeps.
        """
        base = self.get(workload, system)
        per_seed = self.runs_for(workload, system)
        if per_seed:
            return AggregateMetrics.from_runs(list(per_seed.values()), seeds=list(per_seed))
        return AggregateMetrics.from_runs([base], seeds=())

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
        beats ``system_b`` at the 95% level).  Requires a multi-seed sweep:
        pairing needs the same seeds on both sides."""
        runs_a = self.seed_runs.get(workload, {}).get(system_a)
        runs_b = self.seed_runs.get(workload, {}).get(system_b)
        if not runs_a or not runs_b:
            raise ValueError(
                "paired differences need per-seed runs for both systems; "
                f"run the sweep with seeds=[...] (got {system_a!r}: "
                f"{sorted(runs_a or ())}, {system_b!r}: {sorted(runs_b or ())})"
            )
        return paired_difference(runs_a, runs_b, metric)

    def to_json(self, indent: int = 2) -> str:
        """JSON document of the aggregate statistics (see :class:`SweepReport`)."""
        return self.report().to_json(indent=indent)

    # -- rendering (see repro.experiments.plotting) --------------------
    def plot_table(self, metric: str = "throughput_tokens_per_s") -> str:
        """Workload x system text grid of one (dotted-path) metric."""
        from .plotting import render_table

        return render_table(self, metric)

    def plot_bars(
        self,
        metric: str = "throughput_tokens_per_s",
        *,
        workload: Optional[str] = None,
        width: int = 40,
    ) -> str:
        """ASCII bar chart of one metric (all workloads, or one)."""
        from .plotting import render_bars

        return render_bars(self, metric, workload=workload, width=width)

    def plot_csv(self, metrics: Optional[Sequence[str]] = None) -> str:
        """CSV rows of every cell (one row per seed in multi-seed sweeps)."""
        from .plotting import DEFAULT_CSV_METRICS, render_csv

        return render_csv(self, metrics if metrics is not None else DEFAULT_CSV_METRICS)

    def plot_figure(
        self, metric: str = "throughput_tokens_per_s", *, path: Optional[str] = None
    ):
        """Matplotlib grouped-bar figure (raises if matplotlib is absent)."""
        from .plotting import render_figure

        return render_figure(self, metric, path=path)

    def format_report(self) -> str:
        """Per-run rows (base seed first), plus an aggregate table when the
        sweep ran more than one seed."""
        lines: List[str] = []
        multi_seed = len(self.seeds()) > 1
        for workload, row in self.runs.items():
            lines.append(f"== {workload} ==")
            for metrics in row.values():
                line = "  " + metrics.format_row()
                seconds = self.wall_clock(workload, metrics.system)
                if seconds is not None:
                    line += f"  wall={seconds:6.2f}s"
                lines.append(line)
        if multi_seed:
            lines.append(f"== aggregate over seeds {self.seeds()} (mean±95% CI) ==")
            for workload in self.workloads():
                for system in self.systems(workload):
                    lines.append("  " + self.aggregate(workload, system).format_row())
        return "\n".join(lines)


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
    seed: int = 0,
    seeds: Optional[Sequence[int]] = None,
    network_jitter: float = 0.05,
    workers: int = 1,
    faults: FaultsLike = None,
) -> SweepResult:
    """Run every system variant against every workload (and seed).

    Each workload is built **once** by the caller and replayed across the
    system variants via :meth:`WorkloadSpec.fresh_copy`, so variants see
    identical traffic without paying workload generation per run (and
    without sharing mutable request state).

    ``seeds=[a, b, c]`` repeats every (workload, system) cell under each
    seed: per-seed runs land in :attr:`SweepResult.seed_runs` and
    :meth:`SweepResult.aggregate` reports mean/stdev/95% CI per metric.
    Because the workloads are pre-built, the per-seed variation is the
    simulation/network randomness; drivers that also want per-seed
    *traffic* (the macro and pushing benchmarks) rebuild their workloads
    per seed and go through :meth:`SweepExecutor.run_cells`.
    ``seeds=None`` (default) is the historical single-seed path, and
    ``seeds=[s]`` is bit-identical to ``seed=s``.

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
        seed=seed,
        seeds=seeds,
        network_jitter=network_jitter,
        faults=faults,
    )
