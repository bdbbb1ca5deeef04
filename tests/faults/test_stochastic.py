"""Seeded renewal processes: compile determinism, serial == parallel."""

import multiprocessing
from dataclasses import dataclass

import pytest

pytestmark = pytest.mark.strict_invariants

from repro.experiments import REGISTRY, SweepExecutor, build_arena_workload
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    RenewalFaultProcess,
    ReplicaCrash,
    ReplicaDegrade,
    StochasticFaultSchedule,
    make_fault_schedule,
    resolve_fault_schedule,
)

from .test_injector import run_faulted, tiny_cluster


def crash_process(**overrides):
    kwargs = dict(
        fault=ReplicaCrash(region="us", index=0),
        mtbf_s=20.0,
        mttr_s=5.0,
        seed=3,
    )
    kwargs.update(overrides)
    return RenewalFaultProcess(**kwargs)


# ----------------------------------------------------------------------
# compile determinism
# ----------------------------------------------------------------------
def test_same_seed_compiles_bit_identically():
    a = crash_process().compile_events(300.0, run_seed=7)
    b = crash_process().compile_events(300.0, run_seed=7)
    assert a == b
    assert len(a) >= 1
    # Occurrences carry their own drawn repair as duration_s.
    assert all(event.fault.duration_s > 0 for event in a)
    # Renewal structure: next failure starts after the previous repair.
    for prev, cur in zip(a, a[1:]):
        assert cur.at_s > prev.at_s + prev.fault.duration_s


def test_different_process_or_run_seeds_diverge():
    base = crash_process().compile_events(300.0, run_seed=7)
    assert crash_process(seed=4).compile_events(300.0, run_seed=7) != base
    assert crash_process().compile_events(300.0, run_seed=8) != base


def test_two_processes_in_one_bundle_draw_independent_streams():
    # Same template and timing parameters, different process seeds: the
    # bundle must not collapse them onto one stream.
    bundle = StochasticFaultSchedule(
        processes=(crash_process(seed=1), crash_process(seed=2))
    )
    compiled = bundle.compile(duration_s=300.0, seed=7)
    times = [event.at_s for event in compiled.events]
    assert len(times) == len(set(times))  # no duplicated draws


def test_weibull_mean_matches_mtbf():
    process = crash_process(
        distribution="weibull", shape=1.5, mtbf_s=30.0, mttr_s=1.0, seed=11
    )
    events = process.compile_events(100_000.0, run_seed=0)
    gaps = []
    prev_end = process.start_s
    for event in events:
        gaps.append(event.at_s - prev_end)
        prev_end = event.at_s + event.fault.duration_s
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(30.0, rel=0.15)


def test_compile_respects_duration_and_max_events():
    process = crash_process(mtbf_s=1.0, mttr_s=0.5, max_events=10)
    events = process.compile_events(1000.0, run_seed=0)
    assert len(events) == 10
    short = crash_process(mtbf_s=50.0).compile_events(10.0, run_seed=0)
    assert all(event.at_s < 10.0 for event in short)


def test_bundle_appends_process_events_after_base():
    base = FaultSchedule.single(1.0, ReplicaCrash(region="eu", index=0, duration_s=2.0))
    bundle = StochasticFaultSchedule(processes=(crash_process(),), base=base)
    compiled = bundle.compile(duration_s=100.0, seed=7)
    assert compiled.events[0] == base.events[0]
    assert len(compiled.events) > 1
    assert compiled.use_controller == base.use_controller


def test_validation_errors():
    @dataclass(frozen=True)
    class Untimed(FaultSpec):
        kind: str = "untimed"

    with pytest.raises(ValueError, match="duration_s"):
        RenewalFaultProcess(fault=Untimed())  # no duration_s field
    with pytest.raises(ValueError, match="must be positive"):
        crash_process(mtbf_s=0.0)
    with pytest.raises(ValueError, match="unknown distribution"):
        crash_process(distribution="pareto")
    with pytest.raises(TypeError, match="FaultSpec"):
        RenewalFaultProcess(fault="replica-crash")
    with pytest.raises(TypeError, match="RenewalFaultProcess"):
        StochasticFaultSchedule(processes=("gray-throttle-renewal",))


def test_injector_rejects_uncompiled_schedules():
    from repro.network import Network, default_topology
    from repro.sim import Environment

    # The type check fires before any other collaborator is touched, so
    # the rest of the wiring can stay empty here.
    env = Environment()
    with pytest.raises(TypeError, match="compile"):
        FaultInjector(
            env,
            StochasticFaultSchedule(processes=(crash_process(),)),
            network=Network(env, default_topology()),
            deployment=None,
            frontend=None,
            balancers=[],
        )


# ----------------------------------------------------------------------
# end to end: the runner compiles per (duration, seed)
# ----------------------------------------------------------------------
def test_runner_compiles_stochastic_schedules():
    bundle = StochasticFaultSchedule(
        processes=(
            RenewalFaultProcess(
                fault=ReplicaDegrade(region="us", index=0, level="power-cap"),
                mtbf_s=10.0,
                mttr_s=4.0,
                seed=5,
            ),
        )
    )
    result = run_faulted("skywalker", bundle, duration=60.0)
    resilience = result.metrics.resilience
    assert resilience is not None
    assert len(resilience.degraded_windows) >= 1
    assert resilience.outage_windows == []
    # The compiled occurrences match an offline compile at the run's
    # (duration, seed) -- what makes golden traces reproducible.
    offline = bundle.compile(duration_s=60.0, seed=1)
    assert len(result.injector.schedule.events) == len(offline.events)


def test_nothing_fires_within_duration_behaves_like_no_faults():
    quiet = StochasticFaultSchedule(
        processes=(crash_process(mtbf_s=1e9),)
    )
    baseline = run_faulted("skywalker", None)
    result = run_faulted("skywalker", quiet)
    # Compiled empty -> no injector, no resilience record: bit-identical
    # metrics payload to the historical fault-free path.
    assert result.injector is None
    assert result.metrics.to_dict() == baseline.metrics.to_dict()


def test_named_stochastic_scenarios_resolve():
    schedule = resolve_fault_schedule("gray-throttle-renewal")
    assert isinstance(schedule, StochasticFaultSchedule)
    compiled = schedule.compile(duration_s=600.0, seed=0)
    assert not compiled.is_empty
    assert compiled.events[0].fault.kind == "replica-degrade"


# ----------------------------------------------------------------------
# sweep determinism: serial == workers=2 == forced spawn
# ----------------------------------------------------------------------
def _payloads(result):
    out = {}
    for workload in result.workloads():
        for system in result.systems(workload):
            for seed, metrics in result.runs_for(workload, system).items():
                out[(workload, system, seed)] = metrics.to_dict()
    return out


def _stochastic_sweep(executor):
    workload = build_arena_workload(scale=0.03, seed=7)
    # A short mtbf keeps every seed's compiled schedule non-empty within
    # the 30 s horizon (with the default 40 s it's seed-dependent).
    faults = make_fault_schedule("spot-eviction-wave", mtbf_s=12.0, mttr_s=4.0)
    return executor.run(
        [REGISTRY.spec("skywalker"), REGISTRY.spec("round-robin")],
        [workload],
        cluster=tiny_cluster(),
        duration_s=30.0,
        seeds=[1, 2],
        faults=faults,
    )


def test_stochastic_sweep_parallel_and_spawn_match_serial():
    serial = _payloads(_stochastic_sweep(SweepExecutor(workers=1)))
    parallel = _payloads(_stochastic_sweep(SweepExecutor(workers=2)))
    spawned = _payloads(
        _stochastic_sweep(
            SweepExecutor(workers=2, mp_context=multiprocessing.get_context("spawn"))
        )
    )
    assert parallel == serial
    assert spawned == serial
    # The two seeds really exercised different compiled schedules.
    sample = next(key for key in serial if key[2] == 1)
    other = (sample[0], sample[1], 2)
    assert serial[sample] != serial[other]
    # And the faults left a mark: resilience appears in every payload.
    assert all("resilience" in payload for payload in serial.values())
