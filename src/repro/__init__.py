"""SkyWalker reproduction: a locality-aware cross-region load balancer for
LLM inference, together with the full simulated serving stack it runs on.

Quick start -- one run with a registry-typed system config::

    from repro.experiments import (
        ClusterConfig, ExperimentConfig, SkyWalkerConfig, run_experiment,
        build_arena_workload,
    )

    workload = build_arena_workload(scale=0.1)
    config = ExperimentConfig(
        system=SkyWalkerConfig(kind="skywalker", pushing="SP-P"),
        cluster=ClusterConfig(replicas_per_region={"us": 2, "eu": 2, "asia": 2}),
        duration_s=60.0,
    )
    result = run_experiment(config, workload)
    print(result.metrics.format_row())

Sweep several systems over one generated workload (the workload is built
once and replayed with fresh request state per variant).  ``workers`` runs
each (workload, system, seed) cell in its own worker process -- results are
bit-identical to the serial loop for the same seeds, so parallelism only
buys wall-clock.  ``seeds=[...]`` (default ``(0,)``) repeats every cell
across seeds and adds a statistical layer on top: per-seed runs in
``SweepResult.seed_runs`` (``SweepResult.runs`` is the base-seed view, the
first seed of each cell) and mean / stdev / 95% CI (Student-t,
stdlib-only) via ``SweepResult.aggregate`` / ``SweepResult.report``::

    from repro.experiments import REGISTRY, run_sweep

    sweep = run_sweep(
        [REGISTRY.spec("skywalker"), REGISTRY.spec("skywalker-hybrid"),
         REGISTRY.spec("least-load")],
        [workload],
        seeds=[0, 1, 2],
        workers=4,
    )
    print(sweep.report().format_table())  # mean±95% CI per cell
    print(sweep.aggregate(workload.name, "skywalker").stat("ttft_p50"))

``run_macro_benchmark`` / ``run_pushing_benchmark`` /
``run_diurnal_sweep`` accept the same ``seeds=[...]`` (rebuilding their
workloads per seed so each trial sees fresh traffic) and return a
``SweepResult`` too; each figure's questions are functions over it in the
driver module, e.g. ``repro.experiments.macro.speedup_over_baselines``
(Fig. 8), ``pushing.throughput_gain`` (Fig. 9) and
``diurnal_sweep.slo_cost_reduction`` (Fig. 10).  Per-cell host wall-clock
(``sweep.get(...).wall_clock_s``) is telemetry only and deliberately
**excluded from ``RunMetrics.to_dict()``**, which is the payload every
bit-identity check (serial vs parallel, golden traces) compares.

Lower-level control (arbitrary per-cell functions, e.g. the Fig. 10 sweep's
per-region percentiles) is available through
``repro.experiments.SweepExecutor``.  ``README.md`` and ``docs/`` (module
map in ``docs/ARCHITECTURE.md``, plugin walkthrough in
``docs/EXTENDING.md``) cover the whole surface in prose.

Add a whole new system without touching the runner -- register a typed
config and a builder with the public registry::

    from dataclasses import dataclass
    from repro.experiments import SystemSpec, register_system

    @dataclass(frozen=True)
    class MySystemConfig(SystemSpec):
        kind: str = "my-system"
        fanout: int = 2

    @register_system("my-system", config=MySystemConfig)
    def build_my_system(spec, ctx):
        balancer = ...        # build from spec + ctx (env, network, regions)
        ctx.attach(balancer)  # wire replicas, start, register with DNS
        return [balancer]

After registration ``"my-system"`` works everywhere a built-in kind does:
``run_experiment`` and ``run_sweep``.  The
``skywalker-hybrid`` system (``repro.experiments.hybrid``) is exactly such
a plugin.

The same ``@register_*`` pattern extends SkyWalker's policy knobs, which
configs therefore carry as plain *names* (keeping every experiment
description picklable for the process-parallel sweeps):

* **pushing policies** (``"BP"``/``"SP-O"``/``"SP-P"``) --
  ``repro.core.register_pushing_policy`` / ``make_pushing_policy``::

      from repro.core import PushingPolicy, register_pushing_policy

      @register_pushing_policy("SP-MEM")
      class MemoryPushing(PushingPolicy):
          def replica_available(self, probe, dispatched_since_probe):
              return probe.healthy and probe.memory_utilization < 0.8

      SkyWalkerConfig(kind="skywalker", pushing="SP-MEM")  # just works

* **routing constraints** (``"gdpr"``/``"continent"``/``"allow-all"``) --
  ``repro.core.register_constraint`` / ``make_constraint``; factories
  receive the run's topology::

      from repro.core import DenyRegions, register_constraint

      @register_constraint("no-asia")
      def _no_asia(topology):
          return DenyRegions({"asia"})

      SkyWalkerConfig(kind="skywalker", constraint="no-asia")

* **selection policies** (``"prefix_tree"``/``"consistent_hash"``) --
  ``repro.core.register_selection_policy`` / ``make_selection_policy``,
  making custom names valid as ``SkyWalkerBalancer(routing=...)``.

Systems are always described by these typed configs (``SkyWalkerConfig``,
``GatewayConfig``, ``CentralizedConfig``, ...) or by
``REGISTRY.spec(kind, **overrides)`` -- the latter is also the only
spelling that supports plugin-registered kinds with their own extra knobs
(e.g. ``REGISTRY.spec("skywalker-hybrid", hybrid_load_weight=0.2)``).

Sub-packages
------------
``repro.sim``          discrete-event simulation kernel
``repro.replica``      simulated SGLang/vLLM-style inference replica
``repro.network``      cross-region latency matrix and DNS
``repro.net``          the transport: WAN graph, routing, faults, contention
``repro.cluster``      deployments, pricing, clients
``repro.workloads``    synthetic conversation / Tree-of-Thoughts / diurnal traces
``repro.core``         SkyWalker itself (two-layer router, prefix trie, CH,
                       selective pushing, controller)
``repro.balancers``    the baseline load balancers of §5.1
``repro.metrics``      latency summaries, run aggregation, multi-seed
                       statistics (mean / stdev / 95% CI, paired per-seed
                       diffs) and fault-run resilience metrics
``repro.analysis``     cost model, traffic aggregation, prefix similarity
``repro.faults``       deterministic fault injection: picklable fault
                       specs/schedules, name-resolved registries, and the
                       injector driving §4.2 controller failover
``repro.experiments``  scenario builders and runners for every figure
``repro.perf``         hot-path microbenchmark suite (``python -m repro.perf``)
``repro.mem``          page-aligned KV allocator and tiered offload store
``repro.lint``         determinism & registry static analysis
                       (``python -m repro.lint``; ``docs/DETERMINISM.md``)

Resilience scenarios are declarative: every ``run_*`` entry point takes
``faults=`` (a ``repro.faults.FaultSchedule`` or a registered schedule
name).  ``faults=None``/empty is bit-identical to the fault-free path;
the same schedule + seed is bit-identical serially and under
``workers=N``; faulted runs report ``RunMetrics.resilience`` (outage
goodput, time to recovery, per-phase p90 TTFT, stranded/parked/failed
counts).  See ``docs/RESILIENCE.md``.
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "replica",
    "network",
    "cluster",
    "workloads",
    "core",
    "balancers",
    "metrics",
    "analysis",
    "faults",
    "experiments",
    "perf",
]
