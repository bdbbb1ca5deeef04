"""Fault specs, the fault registry and schedule semantics."""

import pickle

import pytest

from repro.faults import (
    BalancerFailure,
    FaultEvent,
    FaultSchedule,
    FaultSpec,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    make_fault,
    make_fault_schedule,
    register_fault,
    register_fault_schedule,
    registered_fault_schedules,
    registered_faults,
    resolve_fault,
    resolve_fault_schedule,
    unregister_fault,
    unregister_fault_schedule,
)

BUILTIN_KINDS = (
    "replica-crash",
    "balancer-fail",
    "region-partition",
    "link-latency-spike",
    "replica-degrade",
    "link-degrade",
    "link-down",
)


# ----------------------------------------------------------------------
# the fault registry
# ----------------------------------------------------------------------
def test_every_builtin_fault_is_registered():
    assert set(BUILTIN_KINDS) <= set(registered_faults())


def test_unknown_fault_kind_raises():
    with pytest.raises(ValueError, match="unknown fault"):
        resolve_fault("quantum-flip")


def test_make_fault_builds_typed_specs():
    fault = make_fault("replica-crash", region="eu", index=1, duration_s=3.0)
    assert isinstance(fault, ReplicaCrash)
    assert fault.kind == "replica-crash"
    assert fault.region == "eu"
    assert fault.index == 1
    assert fault.duration_s == pytest.approx(3.0)


def test_register_fault_round_trip():
    calls = []

    @register_fault("unit-test-fault")
    def _apply(spec, ctx, record):
        calls.append(spec)

    try:
        assert "unit-test-fault" in registered_faults()
        entry = resolve_fault("unit-test-fault")
        entry.factory(FaultSpec(kind="unit-test-fault"), None, None)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="already registered"):
            register_fault("unit-test-fault")(lambda spec, ctx, record: None)
    finally:
        unregister_fault("unit-test-fault")
    assert "unit-test-fault" not in registered_faults()


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_schedule_is_immutable_builder():
    empty = FaultSchedule()
    assert empty.is_empty
    assert len(empty) == 0
    one = empty.add(5.0, ReplicaCrash(region="us"))
    two = one.add(2.0, BalancerFailure(region="eu"))
    assert empty.is_empty  # builders never mutate
    assert len(one) == 1 and len(two) == 2
    assert two.kinds() == ("replica-crash", "balancer-fail")
    # Sorted execution order, not insertion order.
    assert [event.at_s for event in two.sorted_events()] == [2.0, 5.0]


def test_schedule_validates_events():
    with pytest.raises(ValueError, match="non-negative"):
        FaultEvent(-1.0, ReplicaCrash())
    with pytest.raises(TypeError, match="FaultSpec"):
        FaultEvent(1.0, "replica-crash")
    with pytest.raises(TypeError, match="FaultEvent"):
        FaultSchedule(events=(ReplicaCrash(),))
    with pytest.raises(ValueError, match="recovery_time_s"):
        FaultSchedule(recovery_time_s=0.0)


def test_schedule_single_and_equality():
    a = FaultSchedule.single(30.0, BalancerFailure(region="eu", duration_s=20.0))
    b = FaultSchedule(events=(FaultEvent(30.0, BalancerFailure(region="eu", duration_s=20.0)),))
    assert a == b  # plain data: value equality, usable as a cache key


def test_schedule_pickles_for_worker_processes():
    schedule = (
        FaultSchedule()
        .add(10.0, BalancerFailure(region="eu", duration_s=5.0))
        .add(12.0, RegionPartition(a="us", b="asia", duration_s=3.0))
        .add(15.0, LinkLatencySpike(a="us", b="eu", extra_s=0.1, duration_s=2.0))
    )
    assert pickle.loads(pickle.dumps(schedule)) == schedule


# ----------------------------------------------------------------------
# the schedule registry
# ----------------------------------------------------------------------
def test_builtin_outage_schedule_resolves_by_name():
    assert "eu-balancer-outage" in registered_fault_schedules()
    schedule = make_fault_schedule("eu-balancer-outage", at_s=7.0, duration_s=3.0)
    assert schedule.kinds() == ("balancer-fail",)
    assert schedule.events[0].at_s == pytest.approx(7.0)
    assert schedule.events[0].fault.duration_s == pytest.approx(3.0)
    assert schedule.recovery_time_s == pytest.approx(3.0)


def test_resolve_fault_schedule_normalises():
    assert resolve_fault_schedule(None) is None
    schedule = FaultSchedule.single(1.0, ReplicaCrash())
    assert resolve_fault_schedule(schedule) is schedule
    assert resolve_fault_schedule("eu-balancer-outage") == make_fault_schedule(
        "eu-balancer-outage"
    )
    with pytest.raises(ValueError, match="unknown fault schedule"):
        resolve_fault_schedule("does-not-exist")
    with pytest.raises(TypeError, match="faults must be"):
        resolve_fault_schedule(42)


def test_register_fault_schedule_round_trip():
    @register_fault_schedule("unit-test-outage")
    def _factory(at_s: float = 1.0):
        return FaultSchedule.single(at_s, ReplicaCrash(region="us"))

    try:
        schedule = make_fault_schedule("unit-test-outage", at_s=2.5)
        assert schedule.events[0].at_s == pytest.approx(2.5)
    finally:
        unregister_fault_schedule("unit-test-outage")
    with pytest.raises(ValueError, match="unknown fault schedule"):
        make_fault_schedule("unit-test-outage")


def test_schedule_factory_must_return_schedule():
    @register_fault_schedule("unit-test-broken")
    def _factory():
        return ["not", "a", "schedule"]

    try:
        with pytest.raises(TypeError, match="expected FaultSchedule"):
            make_fault_schedule("unit-test-broken")
    finally:
        unregister_fault_schedule("unit-test-broken")
