"""Process-parallel sweep execution.

The paper's headline results (Fig. 8 macro comparison, Fig. 9 pushing
ablation, Fig. 10 region-local) are all *sweeps*: one workload replayed
across many system variants, optionally repeated across seeds
(``seeds=[...]``) for mean/95%-CI statistics.  Every (workload, system,
seed) cell is an independent simulation -- its own
:class:`~repro.sim.Environment`, its own seeded network -- so the cells
parallelise perfectly across processes.

:class:`SweepExecutor` runs each cell in its own worker process (stdlib
``concurrent.futures.ProcessPoolExecutor``); ``workers=1`` falls back to the
plain in-process loop.  Both paths execute the *same* per-cell function on
the *same* picklable task descriptions, so for a fixed seed the parallel
sweep is bit-identical to the serial one -- parallelism only buys
wall-clock, never changes results.

What makes the cells shippable to a worker is that every experiment
description is *data*: typed system specs are frozen dataclasses whose
pushing policy, routing constraint and selection policy are plain
registered *names*, resolved against the corresponding registry inside the
worker when the system is built (:func:`repro.core.pushing.make_pushing_policy`,
:func:`repro.core.policies.make_constraint`,
:func:`repro.core.selection.make_selection_policy`).  Third-party systems
and policies registered via the ``@register_*`` decorators work unchanged:
the executor explicitly uses the ``fork`` start method wherever the
platform offers it, so the workers inherit the parent's registries as-is.
On spawn/forkserver platforms each worker instead runs a bootstrap
initializer that re-imports every module that registered a factory in the
parent, re-populating the registries there.  The module list comes from
:func:`repro._registry.plugin_modules` (re-exported here), which walks the
index of every registry, so a new plug-in point needs no entry anywhere.
The one remaining caveat is plugins defined in ``__main__`` (a script body
or REPL): those cannot be re-imported and need fork, or a real module.

Executors also expose a generic :meth:`SweepExecutor.map` for benchmark
drivers whose cells need post-processing beyond :class:`RunMetrics`
(e.g. the Fig. 10 sweep computes per-region tail latencies inside the
worker) -- any picklable module-level function works.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .._registry import plugin_modules
from ..faults import FaultsLike
from ..metrics import RunMetrics
from .config import ClusterConfig, ExperimentConfig, WorkloadSpec
from .registry import SystemSpec
from .runner import SweepResult, run_experiment

__all__ = [
    "SweepTask",
    "SweepExecutor",
    "run_sweep_task",
    "normalise_seeds",
    "check_unique_system_names",
    "plugin_modules",
]

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


@dataclass(frozen=True)
class SweepTask:
    """One (workload, system) cell of a sweep, fully described as data.

    Everything here is picklable: the config's system is a typed spec
    carrying only names and scalars, its fault schedule is data-only specs
    or a registered schedule name (resolved inside the worker), and the
    workload is plain programs/requests.  A worker process needs nothing
    else to reproduce the cell exactly.
    """

    config: ExperimentConfig
    workload: WorkloadSpec


def run_sweep_task(task: SweepTask) -> RunMetrics:
    """Run one sweep cell and return its metrics.

    Module-level (hence picklable) worker entry point.  The workload is
    re-instantiated via :meth:`WorkloadSpec.fresh_copy` so the cell never
    sees request state mutated by a previous run of the same spec -- the
    serial path reuses one workload object across cells, the parallel path
    re-runs this exact function in a forked process; either way the traffic
    is identical.
    """
    start = time.perf_counter()
    metrics = run_experiment(task.config, task.workload.fresh_copy()).metrics
    # Recorded on the metrics object (picklable, so it survives the trip
    # back from a worker process) but excluded from to_dict(): wall-clock
    # is where-the-time-went telemetry, not part of the result identity.
    metrics.wall_clock_s = time.perf_counter() - start
    return metrics


def _bootstrap_worker(modules: Tuple[str, ...]) -> None:
    """Worker-process initializer: re-import the plugin-defining modules.

    Runs once per spawned worker, before any task.  Import errors propagate
    (the pool surfaces them as a ``BrokenProcessPool``): a module that was
    importable in the parent but is not in a worker is a real environment
    problem, not something to paper over with a silently missing plugin.
    """
    for name in modules:
        importlib.import_module(name)


def check_unique_system_names(systems: Sequence[SystemSpec]) -> None:
    """Reject sweeps whose variants would collide on display name."""
    names = [system.name for system in systems]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(
            f"system variants share display name(s) {duplicates}; "
            "set label=... on each variant to disambiguate"
        )


def normalise_seeds(seeds: Sequence[int]) -> List[int]:
    """Validate a sweep's seeds list: every cell fans out across its
    entries, so it must be non-empty and free of duplicates (a repeated
    seed would silently collapse to one sample and understate the
    confidence interval)."""
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("seeds must be a non-empty sequence")
    if len(set(seed_list)) != len(seed_list):
        raise ValueError(f"seeds contains duplicates: {seed_list}; each seed is one independent trial")
    return seed_list


class SweepExecutor:
    """Runs sweep cells, optionally across worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs every cell
        in-process, exactly like the historical serial loop.
    mp_context:
        Optional :mod:`multiprocessing` context.  Defaults to ``fork``
        wherever available (it carries parent-process plugin registrations
        into the workers for free), falling back to the platform default
        otherwise.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.mp_context = mp_context

    # ------------------------------------------------------------------
    def map(
        self, fn: Callable[[_Task], _Result], tasks: Iterable[_Task]
    ) -> List[_Result]:
        """Apply ``fn`` to every task, preserving task order in the result.

        With ``workers == 1`` (or fewer than two tasks) this is a plain
        in-process loop; otherwise tasks are distributed over a process
        pool.  ``fn`` and the tasks must be picklable (module-level
        function, data-only task objects).
        """
        tasks = list(tasks)
        if self.workers == 1 or len(tasks) < 2:
            return [fn(task) for task in tasks]
        context = self.mp_context
        if context is None:
            # Prefer fork explicitly (the platform default may be spawn or
            # forkserver): forked workers inherit the parent's registries,
            # so third-party systems/policies registered at runtime resolve
            # by name inside the worker without any re-import dance.
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
        pool_kwargs = {}
        if context.get_start_method() != "fork":
            # Spawned workers start from empty registries; hand each one
            # the modules whose import re-registers the parent's plugins.
            pool_kwargs["initializer"] = _bootstrap_worker
            pool_kwargs["initargs"] = (plugin_modules(),)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(tasks)), mp_context=context, **pool_kwargs
        ) as pool:
            return list(pool.map(fn, tasks))

    # ------------------------------------------------------------------
    def run_cells(self, tasks: Sequence[SweepTask]) -> SweepResult:
        """Run pre-built sweep cells and assemble a :class:`SweepResult`.

        The figure-level drivers use this when their cells cannot come from
        the plain (systems x workloads x seeds) cross product -- e.g. the
        macro benchmark rebuilds its workloads per seed.  Task order
        matters for the base-seed view: the *first* task of each
        (workload, system) cell becomes its base-seed run, so per-cell
        seed order should match across calls that are compared.
        """
        result = SweepResult()
        for metrics in self.map(run_sweep_task, list(tasks)):
            result.add(metrics)
        return result

    # ------------------------------------------------------------------
    def run(
        self,
        systems: Sequence[SystemSpec],
        workloads: Sequence[WorkloadSpec],
        *,
        cluster: Optional[ClusterConfig] = None,
        duration_s: float = 120.0,
        seeds: Sequence[int] = (0,),
        network_jitter: float = 0.05,
        faults: FaultsLike = None,
    ) -> SweepResult:
        """Run every system variant against every workload (and seed) on
        this executor; :func:`~repro.experiments.runner.run_sweep` documents
        the parameters."""
        check_unique_system_names(systems)
        cluster = cluster or ClusterConfig()
        seed_list = normalise_seeds(seeds)
        tasks = [
            SweepTask(
                config=ExperimentConfig(
                    system=system,
                    cluster=cluster,
                    duration_s=duration_s,
                    seed=cell_seed,
                    network_jitter=network_jitter,
                    faults=faults,
                ),
                workload=workload,
            )
            for workload in workloads
            for system in systems
            for cell_seed in seed_list
        ]
        return self.run_cells(tasks)
