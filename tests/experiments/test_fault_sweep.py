"""Fault schedules through the sweep layer: determinism and plumbing.

The acceptance bar of the fault subsystem is a pair of bit-identity
guarantees:

* ``faults=None`` and the *empty* schedule produce metrics bit-identical
  to the historical fault-free path (no fault machinery is created at
  all), and
* the same non-empty schedule + seed is bit-identical between the serial
  loop and ``workers=N`` worker processes, and across repeats.
"""

import functools

import pytest

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    build_arena_workload,
    run_diurnal_sweep,
    run_macro_benchmark,
    run_pushing_benchmark,
    run_sweep,
)
from repro.experiments.diurnal_sweep import fleet_runs
from repro.faults import (
    BalancerFailure,
    FaultSchedule,
    ReplicaCrash,
    make_fault,
    register_fault_schedule,
    unregister_fault_schedule,
)
from repro.replica import TINY_TEST_PROFILE

from ..faults.test_schedule import BUILTIN_KINDS

CLUSTER = ClusterConfig(
    replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
)
OUTAGE = FaultSchedule.single(
    10.0, BalancerFailure(region="us", duration_s=8.0), recovery_time_s=8.0
)


def small_sweep(**kwargs):
    workload = build_arena_workload(scale=0.03, seed=1)
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("round-robin")]
    return run_sweep(
        systems, [workload], cluster=CLUSTER, duration_s=25.0, seeds=[1], **kwargs
    ), workload.name


def cells_of(sweep, workload_name):
    return {
        system: sweep.get(workload_name, system).to_dict()
        for system in sweep.systems(workload_name)
    }


# ----------------------------------------------------------------------
# zero-fault identity
# ----------------------------------------------------------------------
def test_empty_schedule_is_bit_identical_to_no_faults():
    plain, name = small_sweep()
    empty, _ = small_sweep(faults=FaultSchedule())
    assert cells_of(plain, name) == cells_of(empty, name)
    # Zero-fault payloads do not even mention resilience, exactly like
    # runs that predate fault injection (golden traces stay valid).
    for payload in cells_of(plain, name).values():
        assert "resilience" not in payload


# ----------------------------------------------------------------------
# metamorphic relation: a fault past the horizon changes nothing
# ----------------------------------------------------------------------
HORIZON_S = 20.0


def horizon_cells(faults):
    workload = build_arena_workload(scale=0.05, seed=3)
    systems = [REGISTRY.spec(kind) for kind in ("skywalker", "round-robin", "gke-gateway")]
    sweep = run_sweep(
        systems, [workload], cluster=CLUSTER, duration_s=HORIZON_S, seeds=[3], faults=faults
    )
    return cells_of(sweep, workload.name)


@functools.lru_cache(maxsize=None)
def unfaulted_horizon_cells():
    return horizon_cells(None)


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
@pytest.mark.parametrize("at_s, applied", [(25.0, 0), (HORIZON_S, 1)], ids=["after", "at"])
def test_fault_past_the_horizon_matches_no_faults(kind, at_s, applied):
    # An event after the horizon never fires; one exactly at it fires, but
    # its window is empty and nothing runs after it.  Either way every
    # metric but the fault count equals the unfaulted run's.
    faulted = horizon_cells(FaultSchedule.single(at_s, make_fault(kind, duration_s=5.0)))
    for system, payload in unfaulted_horizon_cells().items():
        rest = dict(faulted[system])
        resilience = rest.pop("resilience")
        assert rest == payload, system
        assert resilience["num_fault_events"] == applied, system
        assert resilience["outage_windows"] == resilience["degraded_windows"] == []


def test_zero_duration_crash_is_not_an_empty_fault():
    # A crash aborts the replica's in-flight work at once, so even a
    # zero-length crash (an empty outage window) changes the run.
    faulted = horizon_cells(
        FaultSchedule.single(5.0, ReplicaCrash(region="us", index=0, duration_s=0.0))
    )
    for system, payload in unfaulted_horizon_cells().items():
        resilience = faulted[system].pop("resilience")
        assert resilience["outage_windows"] == []
        assert resilience["failed_requests"] > 0, system
        assert faulted[system]["num_completed"] < payload["num_completed"], system


# ----------------------------------------------------------------------
# faulted determinism
# ----------------------------------------------------------------------
def test_faulted_sweep_serial_matches_workers_and_repeats():
    serial, name = small_sweep(faults=OUTAGE, workers=1)
    parallel, _ = small_sweep(faults=OUTAGE, workers=2)
    repeat, _ = small_sweep(faults=OUTAGE, workers=1)
    serial_cells = cells_of(serial, name)
    assert serial_cells == cells_of(parallel, name)
    assert serial_cells == cells_of(repeat, name)
    for system, payload in serial_cells.items():
        assert payload["resilience"]["failover_count"] == 1, system
        assert payload["resilience"]["outage_windows"], system


def test_named_schedule_resolves_inside_worker_processes():
    @register_fault_schedule("test-crash-burst")
    def _factory():
        return FaultSchedule.single(5.0, ReplicaCrash(region="us", index=0, duration_s=5.0))

    try:
        by_name, name = small_sweep(faults="test-crash-burst", workers=2)
        by_object, _ = small_sweep(faults=_factory(), workers=1)
        assert cells_of(by_name, name) == cells_of(by_object, name)
    finally:
        unregister_fault_schedule("test-crash-burst")


# ----------------------------------------------------------------------
# figure-level drivers accept faults=
# ----------------------------------------------------------------------
def test_macro_benchmark_threads_faults_through_cells():
    result = run_macro_benchmark(
        systems=("skywalker", "round-robin"),
        workloads=("chatbot-arena",),
        scale=0.03,
        duration_s=25.0,
        cluster=CLUSTER,
        faults=OUTAGE,
    )
    for system in ("skywalker", "round-robin"):
        resilience = result.get("chatbot-arena", system).resilience
        assert resilience is not None, system
        assert resilience.failover_count == 1, system


def test_diurnal_sweep_threads_faults_through_cells():
    result = run_diurnal_sweep(
        replica_counts=(3,), scale=0.03, duration_s=25.0, faults=OUTAGE
    )
    assert fleet_runs(result, "skywalker")[3].resilience is not None
    # region-local has a us balancer too; the schedule applies to both arms.
    assert fleet_runs(result, "region-local")[3].resilience is not None


def test_pushing_benchmark_threads_faults_through_cells():
    schedule = FaultSchedule.single(8.0, ReplicaCrash(region="us", index=0, duration_s=4.0))
    result = run_pushing_benchmark(
        policies=("BP", "SP-P"), replicas=2, clients=6, duration_s=25.0, faults=schedule
    )
    for policy in ("BP", "SP-P"):
        assert result.get("tot-single-region", policy).resilience is not None, policy


# ----------------------------------------------------------------------
# paired per-seed differences (rides on the multi-seed sweep layer)
# ----------------------------------------------------------------------
def test_sweep_paired_diff_requires_and_uses_per_seed_runs():
    workload = build_arena_workload(scale=0.03, seed=1)
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("round-robin")]
    single = run_sweep(systems, [workload], cluster=CLUSTER, duration_s=20.0, seeds=[1])
    # A single-seed sweep pairs one run per side: degenerate n=1, no CI.
    degenerate = single.paired_diff(workload.name, "skywalker", "round-robin")
    assert degenerate.n == 1 and degenerate.ci95 is None
    with pytest.raises(ValueError, match="unknown system 'no-such-system'"):
        single.paired_diff(workload.name, "skywalker", "no-such-system")

    multi = run_sweep(
        systems, [workload], cluster=CLUSTER, duration_s=20.0, seeds=[1, 2, 3]
    )
    stat = multi.paired_diff(workload.name, "skywalker", "round-robin")
    assert stat.n == 3
    # The paired mean must equal the difference of the per-system means.
    sky = multi.aggregate(workload.name, "skywalker").mean("throughput_tokens_per_s")
    rr = multi.aggregate(workload.name, "round-robin").mean("throughput_tokens_per_s")
    assert stat.mean == pytest.approx(sky - rr)
    with pytest.raises(ValueError, match="unknown metric"):
        multi.paired_diff(workload.name, "skywalker", "round-robin", metric="vibes")
