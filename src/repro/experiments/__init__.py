"""Experiment scenarios and runners for every figure in the paper's evaluation.

Systems are built through the pluggable registry (:mod:`.registry`): each
balancer family registers a builder and a typed config via
``@register_system``, and new systems (e.g. :mod:`.hybrid`'s
``skywalker-hybrid``) plug in without touching the runner.  Pushing
policies and routing constraints resolve by name the same way
(``repro.core``'s ``register_pushing_policy`` / ``register_constraint``),
and a system kind fixes its selection policy, which keeps every
experiment description picklable: :mod:`.sweep`'s :class:`SweepExecutor`
runs each (workload, system) cell of a sweep in its own worker process and
returns metrics bit-identical to the serial loop.
"""

from .config import (
    ALL_SYSTEMS,
    BASELINE_SYSTEMS,
    SYSTEM_KINDS,
    ClusterConfig,
    ExperimentConfig,
    WorkloadSpec,
)
from .diurnal_sweep import build_skewed_workload, run_diurnal_sweep
from .hitrate import (
    SCENARIOS as HITRATE_SCENARIOS,
    HitRateComparison,
    HitRateScenario,
    build_scenario,
    evaluate_hit_rates,
    run_hitrate_benchmark,
)
from .hybrid import HybridSelection, SkyWalkerHybridConfig
from .imbalance import ImbalanceResult, run_imbalance_experiment
from .macro import default_macro_cluster, run_macro_benchmark
from .pushing import build_single_region_tot_workload, run_pushing_benchmark
from .registry import (
    REGISTRY,
    BuildContext,
    SystemRegistry,
    SystemSpec,
    build_regional_mesh,
    register_system,
    registered_system_kinds,
)
from .runner import ExperimentResult, SweepResult, build_system, run_experiment, run_sweep
from .sweep import (
    SweepExecutor,
    SweepTask,
    check_unique_system_names,
    normalise_seeds,
    run_sweep_task,
)
from .systems import CentralizedConfig, GatewayConfig, SkyWalkerConfig
from .workloads import (
    MACRO_WORKLOAD_BUILDERS,
    build_arena_workload,
    build_mixed_tree_workload,
    build_tot_workload,
    build_wildchat_workload,
)

__all__ = [
    # registry API
    "REGISTRY",
    "SystemRegistry",
    "SystemSpec",
    "BuildContext",
    "register_system",
    "registered_system_kinds",
    "build_regional_mesh",
    # typed system configs
    "CentralizedConfig",
    "GatewayConfig",
    "SkyWalkerConfig",
    "SkyWalkerHybridConfig",
    "HybridSelection",
    # configuration
    "ClusterConfig",
    "WorkloadSpec",
    "ExperimentConfig",
    "SYSTEM_KINDS",
    "BASELINE_SYSTEMS",
    "ALL_SYSTEMS",
    # runners
    "ExperimentResult",
    "SweepResult",
    "SweepExecutor",
    "SweepTask",
    "run_sweep_task",
    "normalise_seeds",
    "check_unique_system_names",
    "run_experiment",
    "run_sweep",
    "build_system",
    "run_macro_benchmark",
    "default_macro_cluster",
    "run_pushing_benchmark",
    "build_single_region_tot_workload",
    "HitRateComparison",
    "HitRateScenario",
    "HITRATE_SCENARIOS",
    "build_scenario",
    "evaluate_hit_rates",
    "run_hitrate_benchmark",
    "ImbalanceResult",
    "run_imbalance_experiment",
    "run_diurnal_sweep",
    "build_skewed_workload",
    "MACRO_WORKLOAD_BUILDERS",
    "build_arena_workload",
    "build_wildchat_workload",
    "build_tot_workload",
    "build_mixed_tree_workload",
]
