"""Gray failures: degraded replicas, lossy links, and fault composition."""

import pytest

from repro.faults import (
    FaultSchedule,
    LinkDegrade,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    ReplicaDegrade,
    ReplicaRestore,
)
from repro.network import Network, default_topology
from repro.replica import (
    PERFORMANCE_LEVELS,
    TINY_TEST_PROFILE,
    ReplicaServer,
    resolve_performance_scale,
)
from repro.sim import Environment, Store

from .test_injector import run_faulted, tiny_cluster


@pytest.fixture
def env():
    return Environment()


# ----------------------------------------------------------------------
# performance levels
# ----------------------------------------------------------------------
def test_performance_levels_resolve_by_name_or_float():
    assert resolve_performance_scale("nominal") == 1.0
    assert resolve_performance_scale("thermal-throttle") == PERFORMANCE_LEVELS[
        "thermal-throttle"
    ]
    assert resolve_performance_scale(0.5) == 0.5
    with pytest.raises(ValueError, match="unknown performance level"):
        resolve_performance_scale("warp-speed")
    with pytest.raises(ValueError, match="must be in"):
        resolve_performance_scale(0.0)
    with pytest.raises(ValueError, match="must be in"):
        resolve_performance_scale(1.5)


def test_degrade_stretches_compute_but_not_promotion_stall(env):
    replica = ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE)
    batcher = replica.batcher
    nominal = TINY_TEST_PROFILE.prefill_time(100)
    replica.set_performance_level(0.5)
    assert batcher.performance_scale == 0.5
    # Compute time doubles at half speed; the scale applies at plan time.
    assert TINY_TEST_PROFILE.prefill_time(100) == nominal  # profile untouched
    replica.restore_performance()
    assert batcher.performance_scale == 1.0


def test_degraded_replica_stays_healthy_and_reports_load(env):
    """The gray-failure contract: slow, not dead -- probes still answer."""
    replica = ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE)
    replica.set_performance_level("thermal-throttle")
    assert replica.healthy
    assert replica.performance_level == "thermal-throttle"
    assert replica.num_pending == 0  # probe surface keeps working
    assert replica.has_capacity  # still admits work


def test_restore_epoch_token_guards_stale_restores(env):
    replica = ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE)
    token_old = replica.set_performance_level("power-cap")
    token_new = replica.set_performance_level("p-state-floor")
    # A stale timed restore (from the superseded degrade) must not lift
    # the newer, deeper degrade.
    replica.restore_performance(token_old)
    assert replica.performance_scale == PERFORMANCE_LEVELS["p-state-floor"]
    replica.restore_performance(token_new)
    assert replica.performance_scale == 1.0
    # Forced restore works regardless of epochs.
    replica.set_performance_level("power-cap")
    replica.restore_performance()
    assert replica.performance_scale == 1.0


# ----------------------------------------------------------------------
# crash-while-degraded precedence (the restart-clears-transients rule)
# ----------------------------------------------------------------------
def test_crash_recovery_keeps_degrade_only_while_scheduled(env):
    """Precedence: a restart comes up at full rate unless the degrade
    window is still open (environmental causes outlast the process)."""
    replica = ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE)

    def scenario():
        yield env.timeout(5.0)
        replica.set_performance_level("thermal-throttle", until=15.0)
        yield env.timeout(3.0)  # t=8
        replica.fail()
        yield env.timeout(3.0)  # t=11, degrade still scheduled until 15
        replica.recover()
        assert replica.healthy
        assert replica.batcher.performance_scale == pytest.approx(
            PERFORMANCE_LEVELS["thermal-throttle"]
        )
        yield env.timeout(5.0)  # t=16, past the window
        replica.fail()
        yield env.timeout(1.0)  # t=17
        replica.recover()
        # The window expired while down: the replacement runs at full rate.
        assert replica.batcher.performance_scale == 1.0
        assert replica.performance_level is None

    env.process(scenario())
    env.run(until=20.0)


def test_crash_recovery_keeps_indefinite_degrade(env):
    """An open-ended degrade (until=None) survives a crash/recover cycle:
    only an explicit restore lifts it."""
    replica = ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE)

    def scenario():
        yield env.timeout(2.0)
        replica.set_performance_level("power-cap")  # no until
        replica.fail()
        yield env.timeout(1.0)
        replica.recover()
        assert replica.batcher.performance_scale == pytest.approx(
            PERFORMANCE_LEVELS["power-cap"]
        )
        replica.restore_performance()
        assert replica.batcher.performance_scale == 1.0

    env.process(scenario())
    env.run(until=5.0)


def test_crash_while_degraded_end_to_end():
    """Injector-level precedence: degrade, crash, timed recovery inside
    the degrade window -> both records resolve, replica ends nominal."""
    schedule = (
        FaultSchedule()
        .add(5.0, ReplicaDegrade(region="us", index=0, duration_s=15.0))
        .add(8.0, ReplicaCrash(region="us", index=0, duration_s=3.0))
    )
    result = run_faulted("skywalker", schedule)
    resilience = result.metrics.resilience
    assert resilience.outage_windows == [pytest.approx((8.0, 11.0))]
    assert resilience.degraded_windows == [pytest.approx((5.0, 20.0))]
    replica = result.deployment.replicas_in("us")[0]
    assert replica.healthy
    assert replica.performance_scale == 1.0


# ----------------------------------------------------------------------
# replica-degrade faults end to end
# ----------------------------------------------------------------------
def test_replica_degrade_opens_degraded_window_not_outage():
    schedule = FaultSchedule.single(
        5.0, ReplicaDegrade(region="us", index=0, level="thermal-throttle", duration_s=10.0)
    )
    result = run_faulted("skywalker", schedule)
    resilience = result.metrics.resilience
    assert resilience.outage_windows == []
    assert resilience.degraded_windows == [pytest.approx((5.0, 15.0))]
    assert resilience.mean_time_to_recovery_s == pytest.approx(10.0)
    # Nothing crashed: no failures, and the run kept completing work.
    assert resilience.failed_requests == 0
    assert result.metrics.num_completed > 0
    assert result.deployment.replicas_in("us")[0].performance_scale == 1.0


def test_explicit_replica_restore_closes_the_degraded_window():
    schedule = (
        FaultSchedule()
        .add(5.0, ReplicaDegrade(region="eu", index=0))  # open-ended
        .add(12.0, ReplicaRestore(region="eu", index=0))
    )
    result = run_faulted("skywalker", schedule)
    resilience = result.metrics.resilience
    assert resilience.degraded_windows == [pytest.approx((5.0, 12.0))]
    assert result.deployment.replicas_in("eu")[0].performance_scale == 1.0


def test_degraded_replica_serves_less_traffic_under_hybrid_routing():
    """Observability: probes see the slow replica's inflated queue, so
    load-discounted routing shifts work away without any crash signal."""
    degrade = FaultSchedule.single(
        0.0, ReplicaDegrade(region="us", index=0, level="p-state-floor")
    )
    nominal = run_faulted("skywalker-hybrid", None, duration=60.0)
    degraded = run_faulted("skywalker-hybrid", degrade, duration=60.0)

    def us_share(result):
        completed = result.metrics.num_completed
        served = sum(
            1 for r in result.tracker.completed if r.serving_region == "us"
        )
        return served / max(completed, 1)

    # The degraded replica never looks unhealthy...
    assert degraded.deployment.replicas_in("us")[0].healthy
    # ...but it ends up with a measurably smaller share of the fleet's work.
    assert us_share(degraded) < us_share(nominal)


# ----------------------------------------------------------------------
# link degrades (loss + jitter)
# ----------------------------------------------------------------------
def test_link_degrade_drops_messages_at_the_configured_rate(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    net.add_link_degrade("us", "eu", loss_probability=0.5)
    inbox = Store(env)
    for _ in range(200):
        net.deliver("x", "us", "eu", inbox)
    assert 40 <= net.dropped_messages <= 160  # ~100 expected
    # The reverse direction is degraded too (symmetric by default).
    assert net.link_loss_probability("eu", "us") == pytest.approx(0.5)


def test_link_degrade_contributions_are_additive_and_heal(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    net.add_link_degrade("us", "eu", loss_probability=0.2, extra_jitter_fraction=0.3)
    net.add_link_degrade("us", "eu", loss_probability=0.1)
    assert net.link_loss_probability("us", "eu") == pytest.approx(0.3)
    net.remove_link_degrade("us", "eu", loss_probability=0.2, extra_jitter_fraction=0.3)
    assert net.link_loss_probability("us", "eu") == pytest.approx(0.1)
    net.remove_link_degrade("us", "eu", loss_probability=0.1)
    assert net.link_loss_probability("us", "eu") == 0.0


def test_link_degrade_jitter_only_inflates(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    base = net.topology.one_way("us", "eu")
    net.add_link_degrade("us", "eu", extra_jitter_fraction=0.5)
    samples = [net.sample_one_way("us", "eu") for _ in range(100)]
    assert all(base <= s <= base * 1.5 for s in samples)
    assert len(set(samples)) > 1


def test_link_degrade_probes_feel_jitter_but_are_never_lost(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    net.add_link_degrade("us", "eu", loss_probability=1.0)
    results = []

    def prober():
        yield net.probe_delay("us", "eu")
        results.append("alive")

    env.process(prober())
    env.run()
    assert results == ["alive"]  # 100% message loss, probe still answers


def test_degrade_rng_is_independent_of_the_jitter_stream(env):
    """Installing a degrade must not perturb the nominal jitter draws."""
    plain = Network(env, default_topology(), jitter_fraction=0.2, seed=7)
    degraded = Network(env, default_topology(), jitter_fraction=0.2, seed=7)
    degraded.add_link_degrade("eu", "asia", extra_jitter_fraction=0.5)
    # Sampling an *unaffected* link gives identical draws on both networks.
    a = [plain.sample_one_way("us", "eu") for _ in range(50)]
    b = [degraded.sample_one_way("us", "eu") for _ in range(50)]
    assert a == b


def test_link_degrade_fault_end_to_end():
    schedule = FaultSchedule.single(
        5.0,
        LinkDegrade(
            a="us", b="eu", loss_probability=0.3, extra_jitter_fraction=0.5,
            duration_s=10.0,
        ),
    )
    result = run_faulted("skywalker", schedule)
    resilience = result.metrics.resilience
    assert resilience.degraded_windows == [pytest.approx((5.0, 15.0))]
    assert resilience.outage_windows == []
    assert resilience.dropped_messages > 0
    # Healed: no residual loss or jitter.
    net = result.env  # noqa: F841  (document that the run finished)
    assert result.metrics.num_completed > 0


# ----------------------------------------------------------------------
# fault composition on one edge (the spike/partition satellite)
# ----------------------------------------------------------------------
def test_spike_heal_does_not_resurrect_a_partitioned_link(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    net.set_link_blocked("us", "eu", True)
    net.add_link_extra_latency("us", "eu", 0.2)
    net.remove_link_extra_latency("us", "eu", 0.2)
    # The spike settling touched only the latency table, never the block.
    assert net.link_blocked("us", "eu")
    assert net.link_extra_latency("us", "eu") == 0.0
    net.set_link_blocked("us", "eu", False)
    assert not net.link_blocked("us", "eu")


def test_partition_heal_leaves_an_open_spike_active(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    net.add_link_extra_latency("us", "eu", 0.2)
    net.set_link_blocked("us", "eu", True)
    net.set_link_blocked("us", "eu", False)
    assert net.link_extra_latency("us", "eu") == pytest.approx(0.2)


def test_overlapping_spikes_sum_and_heal_independently(env):
    net = Network(env, default_topology(), jitter_fraction=0.0, seed=1)
    net.add_link_extra_latency("us", "eu", 0.2)
    net.add_link_extra_latency("us", "eu", 0.3)
    assert net.link_extra_latency("us", "eu") == pytest.approx(0.5)
    net.remove_link_extra_latency("us", "eu", 0.2)
    assert net.link_extra_latency("us", "eu") == pytest.approx(0.3)
    net.remove_link_extra_latency("us", "eu", 0.3)
    assert net.link_extra_latency("us", "eu") == 0.0


def test_spike_and_partition_at_identical_timestamps_compose():
    """Regression: same-edge, same-time spike + partition.  Fault ops at
    identical timestamps apply in schedule order and neither clobbers the
    other's state; both heal cleanly."""
    schedule = (
        FaultSchedule()
        .add(10.0, LinkLatencySpike(a="us", b="eu", extra_s=0.2, duration_s=5.0))
        .add(10.0, RegionPartition(a="us", b="eu", duration_s=8.0))
        .add(10.0, LinkLatencySpike(a="us", b="eu", extra_s=0.1, duration_s=12.0))
    )
    result = run_faulted("skywalker", schedule)
    # Injection order at t=10 is list order (stable sort).
    kinds = [r.fault.kind for r in result.injector.records]
    assert kinds == ["link-latency-spike", "region-partition", "link-latency-spike"]
    # All healed: the partition's unblock did not cancel the longer spike
    # early, the spikes' settles did not unblock the partition, and after
    # every duration elapsed the edge is fully clean.
    net = result.injector.network
    assert not net.link_blocked("us", "eu")
    assert not net.link_blocked("eu", "us")
    assert net.link_extra_latency("us", "eu") == 0.0
    assert result.metrics.num_completed > 0


def test_sorted_events_is_stable_for_identical_timestamps():
    spike = LinkLatencySpike(a="us", b="eu", extra_s=0.2)
    partition = RegionPartition(a="us", b="eu")
    schedule = FaultSchedule().add(10.0, spike).add(10.0, partition)
    assert [e.fault for e in schedule.sorted_events()] == [spike, partition]
    flipped = FaultSchedule().add(10.0, partition).add(10.0, spike)
    assert [e.fault for e in flipped.sorted_events()] == [partition, spike]
