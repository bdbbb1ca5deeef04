"""Tests for the availability monitor (Algorithm 1's MONITORAVAILABILITY)."""

import json
from pathlib import Path

import pytest

from repro.core import AvailabilityMonitor, SelectivePushingPending, SkyWalkerBalancer
from repro.faults import FaultInjector, FaultSchedule, RegionPartition
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Environment, count_origins

from ..conftest import make_request


class StubPeer:
    """Minimal stand-in for a peer SkyWalkerBalancer."""

    def __init__(self, name, region, available_replicas=1, queue=0, healthy=True):
        self.name = name
        self.region = region
        self.healthy = healthy
        self.num_available_replicas = available_replicas
        self.queue_size = queue


@pytest.fixture
def monitor(env, network):
    return AvailabilityMonitor(env, network, "us", probe_interval_s=0.1)


def test_new_replica_is_optimistically_available(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    assert monitor.available_local_replicas() == [replica]


def test_probes_discover_a_full_replica(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    monitor.start()
    # Saturate the replica: one huge request occupies all memory, a second
    # one becomes pending.
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve

    def feeder(env):
        for _ in range(2):
            request = make_request(prompt_len=big, output_len=500)
            request.sent_time = env.now
            request.lb_arrival_time = env.now
            yield replica.submit(request)

    env.process(feeder(env))
    env.run(until=1.0)
    assert replica.num_pending >= 1
    assert monitor.available_local_replicas() == []


def test_dispatch_notes_bound_per_interval_pushes(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    monitor.start()
    env.run(until=0.25)
    assert monitor.available_local_replicas() == [replica]
    # The staleness guard tolerates a handful of dispatches per interval ...
    for _ in range(monitor.pushing_policy.max_dispatch_per_probe):
        assert monitor.available_local_replicas() == [replica]
        monitor.note_dispatch(replica.name)
    # ... then holds the replica back until the next heartbeat refreshes it.
    assert monitor.available_local_replicas() == []
    env.run(until=0.5)
    assert monitor.available_local_replicas() == [replica]


def test_remove_local_replica(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    monitor.remove_local_replica(replica.name)
    assert monitor.available_local_replicas() == []
    assert monitor.local_replicas() == []


def test_remote_balancer_availability_follows_probe_state(env, monitor):
    healthy_peer = StubPeer("lb-eu", "eu", available_replicas=2, queue=0)
    saturated_peer = StubPeer("lb-asia", "asia", available_replicas=0, queue=0)
    backlogged_peer = StubPeer("lb-eu2", "eu", available_replicas=3, queue=50)
    for peer in (healthy_peer, saturated_peer, backlogged_peer):
        monitor.add_remote_balancer(peer)
    monitor.start()
    env.run(until=1.0)
    available = monitor.available_remote_balancers()
    assert healthy_peer in available
    assert saturated_peer not in available
    assert backlogged_peer not in available


def test_attaching_an_already_failed_peer_is_not_available(env, monitor):
    """Regression: the seed probe used to hard-code ``healthy=True``, so a
    peer that was already down when attached (controller failover
    re-wiring) was selected as a forward target until the first real probe
    landed.  The seed must mirror the peer's live state instead."""
    dead_peer = StubPeer("lb-eu", "eu", available_replicas=2, healthy=False)
    monitor.add_remote_balancer(dead_peer)
    # No probe cycle has run yet: the seed alone must already exclude it.
    assert monitor.available_remote_balancers() == []
    probe = monitor.balancer_probes[dead_peer.name]
    assert not probe.healthy


def test_attach_seeds_peer_probe_from_live_state(env, monitor):
    peer = StubPeer("lb-eu", "eu", available_replicas=3, queue=2)
    monitor.add_remote_balancer(peer)
    probe = monitor.balancer_probes[peer.name]
    assert probe.healthy
    assert probe.num_available_replicas == 3
    assert probe.queue_size == 2


def test_attaching_a_peer_with_no_free_replicas_is_not_available(env, monitor):
    saturated = StubPeer("lb-asia", "asia", available_replicas=0)
    monitor.add_remote_balancer(saturated)
    assert monitor.available_remote_balancers() == []


def test_dispatched_since_probe_public_accessor(env, monitor, make_tiny_replica):
    replica = make_tiny_replica("us")
    monitor.add_local_replica(replica)
    assert monitor.dispatched_since_probe(replica.name) == 0
    monitor.note_dispatch(replica.name)
    monitor.note_dispatch(replica.name)
    assert monitor.dispatched_since_probe(replica.name) == 2
    assert monitor.dispatched_since_probe("never-seen") == 0


def test_unhealthy_peer_is_excluded_after_probe(env, monitor):
    peer = StubPeer("lb-eu", "eu", available_replicas=2)
    monitor.add_remote_balancer(peer)
    monitor.start()
    env.run(until=1.0)
    assert peer in monitor.available_remote_balancers()
    peer.healthy = False
    env.run(until=2.0)
    assert peer not in monitor.available_remote_balancers()


def test_forward_note_respects_remote_queue_buffer(env, monitor):
    peer = StubPeer("lb-eu", "eu", available_replicas=2, queue=0)
    monitor.add_remote_balancer(peer)
    monitor.start()
    env.run(until=1.0)
    for _ in range(monitor.remote_queue_buffer + 1):
        monitor.note_forward(peer.name)
    assert peer not in monitor.available_remote_balancers()
    env.run(until=2.0)  # the next probe resets the counter
    assert peer in monitor.available_remote_balancers()


def test_wait_for_change_triggers_on_each_probe_cycle(env, monitor, make_tiny_replica):
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.start()
    wakeups = []

    def waiter(env):
        for _ in range(3):
            yield monitor.wait_for_change()
            wakeups.append(env.now)

    env.process(waiter(env))
    env.run(until=1.0)
    assert len(wakeups) == 3
    # Changes arrive roughly once per probe interval (100 ms).
    assert wakeups[-1] <= 0.5


def test_probe_counters_reflect_probe_traffic(env, network, make_tiny_replica):
    monitor = AvailabilityMonitor(env, network, "us", probe_interval_s=0.05)
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.add_remote_balancer(StubPeer("lb-eu", "eu"))
    monitor.start()
    env.run(until=1.0)
    assert network.probe_count >= 20  # ~2 probes per 50 ms cycle


# ----------------------------------------------------------------------
# event budget and pinned probe semantics
# ----------------------------------------------------------------------
def test_idle_cycle_schedules_two_events(env, make_tiny_replica):
    """One cycle with local replicas and 2 peers: the cycle's tick, which
    the zero-delay peer-probe send joins, and the local round trip.  The
    peer round trips land without an event while no waiter is parked, and
    notifications nobody waits for schedule nothing."""
    network = Network(env, default_topology(), jitter_fraction=0.05, seed=3)
    monitor = AvailabilityMonitor(env, network, "us", probe_interval_s=0.1)
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.add_local_replica(make_tiny_replica("us"))
    monitor.add_remote_balancer(StubPeer("lb-eu", "eu"))
    monitor.add_remote_balancer(StubPeer("lb-asia", "asia"))
    monitor.start()
    env.run(until=1.05)
    scheduled = env._eid
    env.run(until=2.05)
    assert env._eid - scheduled == 2 * 10


def test_aligned_cycles_of_three_monitors_share_one_tick(env, make_tiny_replica):
    """Three monitors whose cycles start on the same instants: their cycle
    starts and peer-probe sends are one tick per instant, and each local
    round trip is an event of its own."""
    network = Network(env, default_topology(), jitter_fraction=0.05, seed=3)
    regions = ("us", "eu", "asia")
    monitors = []
    for region in regions:
        monitor = AvailabilityMonitor(env, network, region, probe_interval_s=0.1)
        monitor.add_local_replica(make_tiny_replica(region))
        for peer in regions:
            if peer != region:
                monitor.add_remote_balancer(StubPeer(f"lb-{peer}", peer))
        monitor.start()
        monitors.append(monitor)
    env.run(until=1.05)
    with count_origins() as origins:
        env.run(until=2.05)
    # The tick of each instant is made by the first monitor whose round
    # trip lands; the other two join it.
    assert dict(origins) == {
        "AvailabilityMonitor._cycle": 3 * 10,
        "AvailabilityMonitor._local_probe_landed": 10,
    }
    assert network.probe_count == 3 * 21 * 3


PROBE_LANDINGS = Path(__file__).parent / "data" / "probe_landings.json"


def _probe_landings():
    """Every peer-probe landing of a jittered monitor whose peers change
    state between probes, across a us<->eu partition from 0.55 s to 0.95 s:
    ``(time, peer, healthy, num_available_replicas, queue_size)``."""
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=0.05, seed=11)
    monitor = AvailabilityMonitor(env, network, "us", probe_interval_s=0.1)
    monitor.add_local_replica(ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE))
    peers = [StubPeer("lb-eu", "eu"), StubPeer("lb-asia", "asia")]
    for peer in peers:
        monitor.add_remote_balancer(peer)
    landings = []

    class Recording(dict):
        def __setitem__(self, name, probe):
            landings.append(
                [probe.probe_time, name, probe.healthy, probe.num_available_replicas,
                 probe.queue_size]
            )
            super().__setitem__(name, probe)

    monitor._balancer_probes = Recording(monitor._balancer_probes)

    def churn():
        # Peer state moves off the probe grid, so each landing pins which
        # value it read (the one current when the round trip completed).
        for step in range(1, 60):
            yield env.timeout(0.037)
            # Probes in flight read this state: settle before changing it,
            # as a real balancer does.
            env.settle()
            for index, peer in enumerate(peers):
                peer.queue_size = (step * (index + 2)) % 5
                peer.num_available_replicas = (step + index) % 3
                peer.healthy = step % 11 != index

    env.process(churn())
    FaultInjector(
        env,
        FaultSchedule.single(0.55, RegionPartition(a="us", b="eu", duration_s=0.4)),
        network=network,
        deployment=None,
        frontend=None,
        balancers=[],
    ).start()
    monitor.start()
    env.run(until=2.0)
    return {"landings": landings, "probe_count": network.probe_count}


def test_probe_landings_match_the_pinned_trace():
    """Probe semantics -- interval, jittered RTT, state read on landing, and
    partitioned peers reported down -- are a paper parameter
    (``ablation_probe_interval``): the trace must not move by a bit."""
    assert _probe_landings() == json.loads(PROBE_LANDINGS.read_text())


def test_waiter_parked_between_cycles_wakes_at_the_next_landing(env, network, monitor):
    # RTT to eu is 0.15 s (no jitter), longer than the 0.1 s interval: the
    # probe sent at t=0 lands at 0.15, before the cycle starting at 0.2.
    monitor.add_remote_balancer(StubPeer("lb-eu", "eu"))
    monitor.start()
    env.run(until=0.12)
    wakeups = []

    def waiter(env):
        yield monitor.wait_for_change()
        wakeups.append(env.now)

    env.process(waiter(env))
    env.run(until=1.0)
    assert wakeups == [pytest.approx(network.topology.rtt("us", "eu"))]


def test_notify_without_waiter_schedules_nothing(env, monitor):
    change = monitor.wait_for_change()
    scheduled = env._eid
    monitor._notify_change()
    assert env._eid == scheduled
    assert monitor.wait_for_change() is change  # kept for the next waiter

    def waiter(env):
        yield monitor.wait_for_change()

    env.process(waiter(env))
    env.run()
    scheduled = env._eid
    monitor._notify_change()
    assert env._eid == scheduled + 1  # the parked waiter's wake-up
    assert change.triggered and monitor.wait_for_change() is not change


def test_probe_in_flight_to_a_removed_peer_lands_on_nothing(env, network, make_tiny_replica):
    """A peer probe sent just before ``remove_peer`` must not write the
    removed peer back into the monitor's tables when it lands."""
    balancers = {}
    for region in ("us", "eu", "asia"):
        balancer = SkyWalkerBalancer(env, f"sw@{region}", region, network)
        balancer.add_replica(make_tiny_replica(region))
        balancers[region] = balancer
    for balancer in balancers.values():
        for peer in balancers.values():
            balancer.add_peer(peer)
        balancer.start()
    # The second cycle's peer probes leave at 0.1 s and land after it.
    env.run(until=0.1000001)
    us, eu = balancers["us"], balancers["eu"]
    us.remove_peer(eu.name)
    env.run(until=0.5)
    assert eu.name not in us.monitor.balancer_probes
    assert eu.name not in us.monitor._forwarded_since_probe
    assert list(us.monitor._remote_balancers) == ["sw@asia"]
    # The remaining peer is still probed.
    assert us.monitor.balancer_probes["sw@asia"].probe_time > 0.1
