"""Unit tests for the latency-faithful message transport."""

import pytest

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


def test_call_after_delay_runs_callback_later(env, net):
    fired = []
    net.call_after_delay("us", "asia", lambda: fired.append(env.now))
    assert fired == []
    env.run()
    assert fired == [pytest.approx(net.topology.one_way("us", "asia"))]


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
    fired = []
    net.set_link_blocked("us", "eu")
    net.call_after_delay("us", "eu", lambda: fired.append("nope"))
    env.run()
    assert fired == []
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
    net.set_link_extra_latency("us", "eu", 0.25)
    assert net.sample_one_way("us", "eu") == pytest.approx(base + 0.25)
    assert net.sample_one_way("eu", "us") == pytest.approx(base + 0.25)
    assert net.link_extra_latency("us", "eu") == pytest.approx(0.25)
    # Other links are untouched, and clearing restores the baseline.
    assert net.sample_one_way("us", "asia") == pytest.approx(net.topology.one_way("us", "asia"))
    net.set_link_extra_latency("us", "eu", 0.0)
    assert net.sample_one_way("us", "eu") == pytest.approx(base)


def test_latency_spike_rejects_negative(env, net):
    with pytest.raises(ValueError, match="non-negative"):
        net.set_link_extra_latency("us", "eu", -0.1)


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
