"""Unit tests for the latency-faithful message transport on the default
(mesh) network."""

import pytest

from repro.faults import FaultInjector, FaultSchedule, LinkDown, RegionPartition
from repro.network import Network, default_topology
from repro.sim import Environment, Store


@pytest.fixture
def net(env):
    return Network(env, default_topology(), jitter_fraction=0.0, seed=1)


def test_deliver_applies_one_way_latency(env, net):
    inbox = Store(env)
    arrivals = []

    def consumer(env):
        item = yield inbox.get()
        arrivals.append((item, env.now))

    env.process(consumer(env))
    net.deliver("payload", "us", "eu", inbox)
    env.run()
    assert arrivals == [("payload", pytest.approx(net.topology.one_way("us", "eu")))]


def test_deliver_intra_region_is_fast(env, net):
    inbox = Store(env)
    net.deliver("x", "us", "us", inbox)
    env.run()
    assert env.now <= 0.01


def test_jitter_stays_within_bounds(env):
    net = Network(env, default_topology(), jitter_fraction=0.2, seed=3)
    base = net.topology.one_way("us", "asia")
    samples = [net.sample_one_way("us", "asia") for _ in range(200)]
    assert all(base * 0.8 <= s <= base * 1.2 for s in samples)
    assert len(set(samples)) > 1  # actually random


def test_zero_jitter_is_deterministic(env, net):
    samples = {net.sample_one_way("us", "eu") for _ in range(10)}
    assert len(samples) == 1


def test_message_accounting_distinguishes_cross_region(env, net):
    inbox = Store(env)
    net.deliver("a", "us", "us", inbox)
    net.deliver("b", "us", "eu", inbox)
    net.deliver("c", "eu", "asia", inbox)
    assert net.messages_sent == 3
    assert net.cross_region_messages == 2


def test_probe_reads_state_after_rtt(env, net):
    state = {"value": 7}
    results = []

    def prober(env):
        yield net.probe_delay("us", "eu")
        results.append((state["value"], env.now))

    env.process(prober(env))
    # Mutate the state before the probe completes: the prober reads at the
    # end of the round trip, so it must observe the new value.
    state["value"] = 42
    env.run()
    assert results[0][0] == 42
    assert results[0][1] == pytest.approx(net.topology.rtt("us", "eu"))
    assert net.probe_count == 1


def test_probe_delay_counts_probes(env, net):
    def prober(env):
        yield net.probe_delay("us", "us")

    env.process(prober(env))
    env.run()
    assert net.probe_count == 1


# ----------------------------------------------------------------------
# link faults (partitions and latency spikes)
# ----------------------------------------------------------------------
def test_blocked_link_drops_messages_both_ways(env, net):
    inbox = Store(env)
    net.set_link_blocked("us", "eu")
    net.deliver("lost-there", "us", "eu", inbox)
    net.deliver("lost-back", "eu", "us", inbox)
    net.deliver("arrives", "us", "asia", inbox)
    env.run()
    assert list(inbox.items) == ["arrives"]
    assert net.dropped_messages == 2
    # Healing restores delivery (new messages only; dropped ones are gone).
    net.set_link_blocked("us", "eu", False)
    net.deliver("post-heal", "us", "eu", inbox)
    env.run()
    assert list(inbox.items) == ["arrives", "post-heal"]
    assert not net.link_blocked("us", "eu") and not net.link_blocked("eu", "us")


def test_blocked_link_drops_callbacks_too(env, net):
    # A dropped message schedules no delivery callback at all.
    inbox = Store(env)
    net.set_link_blocked("us", "eu")
    net.deliver("nope", "us", "eu", inbox)
    assert env._eid == 0
    env.run()
    assert list(inbox.items) == []
    assert net.dropped_messages == 1


def test_asymmetric_block(env, net):
    inbox = Store(env)
    net.set_link_blocked("us", "eu", symmetric=False)
    net.deliver("dropped", "us", "eu", inbox)
    net.deliver("arrives", "eu", "us", inbox)
    env.run()
    assert list(inbox.items) == ["arrives"]


def test_latency_spike_inflates_one_way_samples(env, net):
    base = net.topology.one_way("us", "eu")
    net.add_link_extra_latency("us", "eu", 0.25)
    assert net.sample_one_way("us", "eu") == pytest.approx(base + 0.25)
    assert net.sample_one_way("eu", "us") == pytest.approx(base + 0.25)
    assert net.link_extra_latency("us", "eu") == pytest.approx(0.25)
    # Other links are untouched, and removing the spike restores the baseline.
    assert net.sample_one_way("us", "asia") == pytest.approx(net.topology.one_way("us", "asia"))
    net.remove_link_extra_latency("us", "eu", 0.25)
    assert net.link_extra_latency("us", "eu") == 0.0
    assert net.sample_one_way("us", "eu") == base


def test_latency_spike_rejects_negative(env, net):
    with pytest.raises(ValueError, match="non-negative"):
        net.add_link_extra_latency("us", "eu", -0.1)


def test_overlapping_blocks_are_reference_counted(env, net):
    # Two overlapping faults block the same link; it must stay down until
    # BOTH have healed (the shorter fault's heal must not punch a hole in
    # the longer isolation).
    inbox = Store(env)
    net.set_link_blocked("us", "eu")   # long-lived isolation
    net.set_link_blocked("us", "eu")   # shorter overlapping partition
    net.set_link_blocked("us", "eu", False)  # shorter fault heals first
    net.deliver("still-dropped", "us", "eu", inbox)
    env.run()
    assert list(inbox.items) == []
    assert net.link_blocked("us", "eu")
    net.set_link_blocked("us", "eu", False)  # isolation heals
    assert not net.link_blocked("us", "eu")
    # Unbalanced unblocks are a no-op, not an error (and do not go negative).
    net.set_link_blocked("us", "eu", False)
    net.set_link_blocked("us", "eu")
    assert net.link_blocked("us", "eu")


def test_a_region_cannot_be_partitioned_from_itself(env, net):
    with pytest.raises(ValueError, match="itself"):
        net.set_link_blocked("us", "us")


# ----------------------------------------------------------------------
# fault kinds on the default network
# ----------------------------------------------------------------------
def _inject(env, net, delay, spec):
    FaultInjector(
        env,
        FaultSchedule.single(delay, spec),
        network=net,
        deployment=None,
        frontend=None,
        balancers=[],
    ).start()


def test_link_down_reroutes_through_the_third_region(env, net):
    _inject(env, net, 1.0, LinkDown(a="us", b="eu", duration_s=2.0))
    env.run(until=1.5)
    assert net.route("us", "eu") == ("us", "asia", "eu")
    assert net.route("eu", "us") == ("eu", "asia", "us")
    assert net.reachable("us", "eu") and not net.link_blocked("us", "eu")
    # Messages still arrive, over both legs of the detour.
    topology = net.topology
    detour = topology.one_way("us", "asia") + topology.one_way("asia", "eu")
    assert net.sample_one_way("us", "eu") == pytest.approx(detour)
    inbox = Store(env)
    net.deliver("detoured", "us", "eu", inbox)
    env.run(until=1.5 + detour + 1e-9)
    assert list(inbox.items) == ["detoured"]
    assert net.dropped_messages == 0

    env.run(until=3.5)  # the link heals at t=3
    assert net.route("us", "eu") == ("us", "eu")
    events = [event.as_tuple() for event in net.route_events]
    assert events == [
        (1.0, "link-down", "eu", "us", ("eu", "us"), ("eu", "asia", "us")),
        (1.0, "link-down", "us", "eu", ("us", "eu"), ("us", "asia", "eu")),
        (3.0, "link-up", "eu", "us", ("eu", "asia", "us"), ("eu", "us")),
        (3.0, "link-up", "us", "eu", ("us", "asia", "eu"), ("us", "eu")),
    ]


def test_region_partition_fault_drops_both_ways(env, net):
    _inject(env, net, 1.0, RegionPartition(a="us", b="eu", duration_s=2.0))
    env.run(until=1.5)
    inbox = Store(env)
    net.deliver("lost-there", "us", "eu", inbox)
    net.deliver("lost-back", "eu", "us", inbox)
    net.deliver("arrives", "us", "asia", inbox)
    assert net.link_blocked("us", "eu") and net.link_blocked("eu", "us")
    # A partition forbids the pair: no detour through asia.
    assert net.route("us", "eu") is None
    env.run(until=2.5)
    assert list(inbox.items) == ["arrives"]
    assert net.dropped_messages == 2
    env.run(until=3.5)  # healed at t=3
    assert net.route("us", "eu") == ("us", "eu")
    assert [event.reason for event in net.route_events] == ["partition"] * 2 + ["heal"] * 2
