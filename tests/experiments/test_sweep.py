"""Tests for the process-parallel sweep executor.

The core guarantee under test: for a fixed seed, a sweep run with N worker
processes is **bit-identical** to the serial in-process loop -- parallelism
only buys wall-clock, never changes results.
"""

import pytest

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    SweepExecutor,
    SweepTask,
    build_arena_workload,
    build_tot_workload,
    run_sweep,
    run_sweep_task,
)
from repro.replica import TINY_TEST_PROFILE


def tiny_cluster():
    return ClusterConfig(
        replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
    )


def _double(value):
    """Module-level so ProcessPoolExecutor can pickle it."""
    return value * 2


# ----------------------------------------------------------------------
# executor basics
# ----------------------------------------------------------------------
def test_workers_must_be_at_least_one():
    with pytest.raises(ValueError, match="workers"):
        SweepExecutor(workers=0)


def test_map_preserves_task_order_across_workers():
    values = list(range(10))
    assert SweepExecutor(workers=1).map(_double, values) == [v * 2 for v in values]
    assert SweepExecutor(workers=3).map(_double, values) == [v * 2 for v in values]


def test_duplicate_display_names_rejected():
    workload = build_arena_workload(scale=0.02)
    with pytest.raises(ValueError, match="label"):
        SweepExecutor(workers=2).run(
            [REGISTRY.spec("skywalker"), REGISTRY.spec("skywalker")],
            [workload],
            cluster=tiny_cluster(),
            duration_s=5.0,
        )


def test_sweep_task_is_picklable():
    import pickle

    task = SweepTask(
        system=REGISTRY.spec("skywalker"),
        workload=build_arena_workload(scale=0.02),
        cluster=tiny_cluster(),
        duration_s=5.0,
        seed=3,
    )
    clone = pickle.loads(pickle.dumps(task))
    assert clone.system == task.system
    assert clone.workload.total_requests == task.workload.total_requests
    assert clone.seed == 3


def test_run_sweep_task_leaves_the_workload_pristine():
    task = SweepTask(
        system=REGISTRY.spec("round-robin"),
        workload=build_arena_workload(scale=0.02),
        cluster=tiny_cluster(),
        duration_s=10.0,
        seed=1,
    )
    metrics = run_sweep_task(task)
    assert metrics.num_completed > 0
    for programs in task.workload.programs_by_region.values():
        for program in programs:
            for request in program.all_requests():
                assert request.status == "created"


# ----------------------------------------------------------------------
# determinism: parallel == serial, bit for bit
# ----------------------------------------------------------------------
def test_parallel_sweep_is_bit_identical_to_serial():
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("consistent-hash")]
    workloads = [
        build_arena_workload(scale=0.03, seed=1),
        build_tot_workload(scale=0.06, seed=2),
    ]
    kwargs = dict(cluster=tiny_cluster(), duration_s=20.0, seed=1)
    serial = run_sweep(systems, workloads, workers=1, **kwargs)
    parallel = run_sweep(systems, workloads, workers=2, **kwargs)

    assert serial.workloads() == parallel.workloads()
    for workload in serial.workloads():
        assert serial.systems(workload) == parallel.systems(workload)
        for system in serial.systems(workload):
            reference = serial.get(workload, system)
            assert reference.num_completed > 0
            assert parallel.get(workload, system).to_dict() == reference.to_dict()


def test_parallel_sweep_resolves_plugin_systems_in_workers():
    # skywalker-hybrid registers itself via the public @register_system API;
    # forked workers inherit the registration and build it by name.
    sweep = run_sweep(
        [REGISTRY.spec("skywalker-hybrid")],
        [build_arena_workload(scale=0.03, seed=1), build_tot_workload(scale=0.06, seed=2)],
        cluster=tiny_cluster(),
        duration_s=15.0,
        seed=1,
        workers=2,
    )
    for workload in sweep.workloads():
        assert sweep.get(workload, "skywalker-hybrid").num_completed > 0


# ----------------------------------------------------------------------
# per-cell wall-clock recording
# ----------------------------------------------------------------------
def test_cell_wall_clock_recorded_in_serial_and_parallel_modes():
    workload = build_arena_workload(scale=0.02)
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("least-load")]
    for workers in (1, 2):
        sweep = run_sweep(
            systems, [workload], cluster=tiny_cluster(), duration_s=5.0, workers=workers
        )
        for system in sweep.systems(workload.name):
            seconds = sweep.wall_clock(workload.name, system)
            assert seconds is not None and seconds > 0.0, (workers, system)
            assert sweep.get(workload.name, system).wall_clock_s == seconds
        # The wall-clock column is telemetry, not part of the result
        # identity that the serial-vs-parallel equivalence compares.
        metrics = sweep.get(workload.name, "skywalker")
        assert "wall_clock_s" not in metrics.to_dict()
        assert "  wall=" in sweep.format_report()


def test_wall_clock_survives_pickling_from_workers():
    import pickle

    workload = build_arena_workload(scale=0.02)
    task = SweepTask(
        system=REGISTRY.spec("skywalker"),
        workload=workload,
        cluster=tiny_cluster(),
        duration_s=5.0,
    )
    metrics = run_sweep_task(task)
    assert metrics.wall_clock_s is not None and metrics.wall_clock_s > 0.0
    revived = pickle.loads(pickle.dumps(metrics))
    assert revived.wall_clock_s == metrics.wall_clock_s
    assert revived.to_dict() == metrics.to_dict()
