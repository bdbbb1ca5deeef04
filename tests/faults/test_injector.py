"""End-to-end fault injection through ``run_experiment(..., faults=...)``."""

import pytest

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_arena_workload,
    build_skewed_workload,
    run_experiment,
)
from repro.faults import (
    BalancerFailure,
    FaultEvent,
    FaultSchedule,
    FaultSpec,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    make_fault,
    register_fault,
    registered_faults,
    unregister_fault,
)
from repro.replica import TINY_TEST_PROFILE

from .test_schedule import BUILTIN_KINDS


def tiny_cluster(profile=TINY_TEST_PROFILE):
    replicas = {"us": 1, "eu": 1, "asia": 1}
    if profile is None:  # the default (paper) profile: a roomy KV pool
        return ClusterConfig(replicas_per_region=replicas)
    return ClusterConfig(replicas_per_region=replicas, profile=profile)


def run_faulted(kind, schedule, *, duration=40.0, scale=0.03, seed=1,
                workload_builder=build_arena_workload, cluster=None):
    workload = workload_builder(scale=scale)
    config = ExperimentConfig(
        system=REGISTRY.spec(kind, hash_key=workload.hash_key),
        cluster=cluster or tiny_cluster(),
        duration_s=duration,
        seed=seed,
        faults=schedule,
    )
    return run_experiment(config, workload)


# ----------------------------------------------------------------------
# replica faults
# ----------------------------------------------------------------------
def test_replica_crash_aborts_and_recovers():
    schedule = FaultSchedule.single(5.0, ReplicaCrash(region="us", index=0, duration_s=5.0))
    result = run_faulted("skywalker", schedule)
    resilience = result.metrics.resilience
    assert resilience is not None
    assert resilience.num_fault_events == 1
    # The crash aborted in-flight work; clients were unblocked via the
    # tracker instead of hanging forever.
    assert resilience.failed_requests == result.tracker.num_failed > 0
    # The replica is back and the run still completed traffic afterwards.
    us_replica = result.deployment.replicas_in("us")[0]
    assert us_replica.healthy
    assert result.metrics.num_completed > 0
    assert resilience.outage_windows == [pytest.approx((5.0, 10.0))]
    assert resilience.completed_during > 0
    assert resilience.goodput_during_outage_tokens_per_s > 0
    # Every completion lands in exactly one send-time phase.
    phases = (resilience.completed_before, resilience.completed_during, resilience.completed_after)
    assert sum(phases) == result.metrics.num_completed


def test_timed_replica_recover_closes_the_window():
    schedule = (
        FaultSchedule()
        .add(5.0, ReplicaCrash(region="eu", index=0, duration_s=5.0))
        .add(9.0, ReplicaCrash(region="eu", index=0))  # no-op on a dead replica
        .add(12.0, ReplicaCrash(region="us", index=0, duration_s=4.0))
    )
    result = run_faulted("skywalker", schedule)
    windows = result.metrics.resilience.outage_windows
    # The eu window closes at its own timed recovery; crashing an
    # already-dead replica opened no second window.
    assert windows == [pytest.approx((5.0, 10.0)), pytest.approx((12.0, 16.0))]
    assert all(replica.healthy for replica in result.deployment.replicas)


def test_replica_fault_validates_target():
    schedule = FaultSchedule.single(1.0, ReplicaCrash(region="us", index=7))
    with pytest.raises(ValueError, match="out of range"):
        run_faulted("skywalker", schedule, duration=5.0)


# ----------------------------------------------------------------------
# balancer faults without a controller (centralized / gateway)
# ----------------------------------------------------------------------
def test_total_outage_queues_on_stale_dns_and_drains_after_recovery():
    # round-robin has exactly one balancer (us): killing it is a total
    # outage.  Clients keep sending via the stale DNS record; the backlog
    # drains after recovery instead of erroring out.  (Default profile: the
    # tiny KV pool cannot admit the arena workload's largest prompts, and a
    # blindly-pushed oversized prompt would head-of-line block its replica
    # and stall the clients this test needs active during the outage.)
    schedule = FaultSchedule.single(8.0, BalancerFailure(region="us", duration_s=8.0))
    result = run_faulted("round-robin", schedule, cluster=tiny_cluster(profile=None))
    resilience = result.metrics.resilience
    assert result.frontend.stale_dispatches > 0
    assert resilience.failover_count == 1
    assert resilience.mean_time_to_recovery_s == pytest.approx(8.0)
    balancer = result.balancers[0]
    assert balancer.healthy
    assert result.metrics.num_completed > 0
    # Requests sent during the outage waited for recovery: their tail TTFT
    # clearly exceeds the healthy phase's (requests sent near the end of
    # the window wait only briefly, so the ratio is bounded but real).
    assert resilience.ttft_p90_during_s > 1.5 * resilience.ttft_p90_before_s


def test_gateway_outage_reroutes_to_surviving_regions():
    schedule = FaultSchedule.single(8.0, BalancerFailure(region="us", duration_s=8.0))
    result = run_faulted("gke-gateway", schedule)
    resilience = result.metrics.resilience
    # Other regions' gateways were healthy, so DNS re-routed instead of
    # queueing on the stale record.
    assert result.frontend.stale_dispatches == 0
    assert resilience.completed_during > 0
    assert all(balancer.healthy for balancer in result.balancers)


def test_balancer_fault_in_absent_region_is_a_noop():
    # A cross-system sweep runs one schedule against every variant; the
    # centralized baseline has no eu balancer, so the fault records a no-op.
    schedule = FaultSchedule.single(5.0, BalancerFailure(region="eu", duration_s=5.0))
    result = run_faulted("round-robin", schedule, duration=20.0)
    resilience = result.metrics.resilience
    assert resilience.num_fault_events == 1
    assert resilience.outage_windows == []
    assert result.injector.records[0].target == "(no balancer in eu)"


# ----------------------------------------------------------------------
# controller-driven balancer failover (SkyWalker)
# ----------------------------------------------------------------------
def test_controller_driven_failover_end_to_end():
    schedule = FaultSchedule.single(
        8.0,
        BalancerFailure(region="eu"),
        controller_probe_interval_s=0.25,
        recovery_time_s=4.0,
    )
    result = run_faulted("skywalker", schedule)
    controller = result.controller
    assert controller is not None
    assert len(controller.failovers) == 1
    record = controller.failovers[0]
    assert record.failed_balancer == "skywalker@eu"
    assert record.recovered_at is not None
    resilience = result.metrics.resilience
    assert resilience.failover_count == 1
    # Window: injection at 8.0 until the controller-driven recovery
    # (detection <= probe interval, then recovery_time_s).
    (start, end) = resilience.outage_windows[0]
    assert start == pytest.approx(8.0)
    assert end == pytest.approx(record.recovered_at)
    assert end - start >= 4.0
    assert end - start < 4.0 + 0.5  # detection adds at most one probe cycle
    # Replicas went home and the balancer serves again.
    eu = next(b for b in result.balancers if b.region == "eu")
    assert eu.healthy
    assert any(r.name == "eu/replica-0" for r in eu.local_replicas())


def test_use_controller_false_downgrades_to_injector_ops():
    schedule = FaultSchedule.single(
        8.0, BalancerFailure(region="eu", duration_s=5.0), use_controller=False
    )
    result = run_faulted("skywalker", schedule)
    assert result.controller is None
    assert result.metrics.resilience.outage_windows == [pytest.approx((8.0, 13.0))]
    eu = next(b for b in result.balancers if b.region == "eu")
    assert eu.healthy


# ----------------------------------------------------------------------
# network faults
# ----------------------------------------------------------------------
def test_region_partition_blocks_and_heals():
    # The skewed workload overloads the us region so cross-region
    # offloading is active, then the partition cuts us off entirely.
    schedule = FaultSchedule.single(5.0, RegionPartition(a="us", duration_s=10.0))
    result = run_faulted(
        "skywalker", schedule, scale=0.08, duration=60.0, workload_builder=build_skewed_workload
    )
    resilience = result.metrics.resilience
    assert resilience.outage_windows == [pytest.approx((5.0, 15.0))]
    network = result.balancers[0].network
    assert not network.link_blocked("us", "eu")  # healed
    assert result.metrics.num_completed > 0


def test_latency_spike_inflates_and_settles():
    schedule = FaultSchedule.single(
        5.0, LinkLatencySpike(a="us", b="eu", extra_s=0.5, duration_s=10.0)
    )
    result = run_faulted("skywalker", schedule)
    network = result.balancers[0].network
    assert network.link_extra_latency("us", "eu") == 0.0  # settled
    assert result.metrics.resilience.outage_windows == [pytest.approx((5.0, 15.0))]


# ----------------------------------------------------------------------
# schedule resolution and validation at the config boundary
# ----------------------------------------------------------------------
def test_named_schedule_resolves_through_experiment_config():
    result = run_faulted("skywalker", "eu-balancer-outage")
    resilience = result.metrics.resilience
    assert resilience is not None
    assert resilience.failover_count == 1


def test_unknown_fault_kind_fails_fast_at_setup():
    schedule = FaultSchedule(events=(FaultEvent(1.0, FaultSpec(kind="quantum-flip")),))
    with pytest.raises(ValueError, match="unknown fault"):
        run_faulted("skywalker", schedule, duration=5.0)


@pytest.mark.parametrize(
    "kind", ["replica-recover", "balancer-recover", "replica-restore", "link-up"]
)
def test_recovery_events_are_not_fault_kinds(kind):
    # A fault heals by its own duration_s; there is no separate recovery
    # event, and naming one fails at setup with the registered kinds.
    schedule = FaultSchedule(events=(FaultEvent(1.0, FaultSpec(kind=kind)),))
    with pytest.raises(ValueError, match=f"unknown fault '{kind}'") as raised:
        run_faulted("skywalker", schedule, duration=5.0)
    message = str(raised.value)
    assert all(repr(name) in message for name in registered_faults())


# ----------------------------------------------------------------------
# one lifecycle: every built-in kind heals by its own duration_s
# ----------------------------------------------------------------------
def stack_state(ctx):
    """Everything a built-in fault changes, as one comparable value."""
    regions = ctx.network.topology.region_names()
    pairs = [(a, b) for a in regions for b in regions if a != b]
    return {
        "replicas": [(r.name, r.healthy, r.performance_scale) for r in ctx.deployment.replicas],
        "balancers": [(b.name, b.healthy) for b in ctx.balancers],
        "dns": [ctx.frontend.dns.resolve(region) for region in regions],
        "links": [
            (
                pair,
                ctx.network.link_blocked(*pair),
                ctx.network.link_extra_latency(*pair),
                ctx.network.link_loss_probability(*pair),
                ctx.network.route(*pair),
            )
            for pair in pairs
        ],
    }


@pytest.fixture
def snapshots():
    """A ``stack-snapshot`` fault kind that records :func:`stack_state`."""
    taken = []

    @register_fault("stack-snapshot")
    def _snapshot(spec, ctx, record):
        record.opens_window = False
        taken.append(stack_state(ctx))

    yield taken
    unregister_fault("stack-snapshot")


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_every_kind_heals_after_its_duration(kind, snapshots):
    at, duration = 3.0, 4.0
    snapshot = FaultSpec(kind="stack-snapshot")
    schedule = FaultSchedule(
        events=(
            FaultEvent(1.0, snapshot),
            FaultEvent(at, make_fault(kind, duration_s=duration)),
            FaultEvent(5.0, snapshot),
            FaultEvent(9.0, snapshot),
        ),
        # Controller-less, so the injector itself heals balancer-fail too.
        use_controller=False,
    )
    result = run_faulted("skywalker", schedule, duration=10.0)
    (record,) = [r for r in result.injector.records if r.fault.kind == kind]
    assert record.resolved_at == at + duration
    before, during, after = snapshots
    assert during != before  # the fault took effect ...
    assert after == before  # ... and healed completely
    # Before the fault the stack was nominal, so after it, it is again.
    assert all(healthy and scale == 1.0 for _, healthy, scale in after["replicas"])
    assert all(healthy for _, healthy in after["balancers"])
    assert after["dns"] == [f"skywalker@{region}" for region in ("us", "eu", "asia")]
    for (src, dst), blocked, extra, loss, route in after["links"]:
        assert (blocked, extra, loss, route) == (False, 0.0, 0.0, (src, dst))
