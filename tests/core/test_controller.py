"""Tests for the service controller's load-balancer failure recovery (§4.2)."""

import pytest

from repro.cluster import Frontend, RequestTracker
from repro.core import ServiceController, SkyWalkerBalancer
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Environment

from ..conftest import make_request


@pytest.fixture
def system(env):
    """Three regional balancers with one replica each, plus the controller."""
    network = Network(env, default_topology(), jitter_fraction=0.0)
    frontend = Frontend(env, network)
    tracker = RequestTracker(env)
    balancers = {}
    replicas = {}
    for region in ("us", "eu", "asia"):
        balancer = SkyWalkerBalancer(env, f"sw@{region}", region, network, probe_interval_s=0.05)
        replica = ReplicaServer(env, f"{region}/replica-0", region, TINY_TEST_PROFILE)
        replica.add_completion_listener(tracker.complete)
        balancer.add_replica(replica)
        balancers[region] = balancer
        replicas[region] = replica
    for balancer in balancers.values():
        for peer in balancers.values():
            if peer is not balancer:
                balancer.add_peer(peer)
        balancer.start()
        frontend.register_balancer(balancer)
    controller = ServiceController(
        env, network, frontend, health_probe_interval_s=0.1, recovery_time_s=2.0
    )
    for balancer in balancers.values():
        controller.register_balancer(balancer)
    controller.start()
    return {
        "env": env,
        "network": network,
        "frontend": frontend,
        "tracker": tracker,
        "balancers": balancers,
        "replicas": replicas,
        "controller": controller,
    }


def test_failover_reassigns_replicas_to_nearest_balancer(system):
    env = system["env"]
    eu = system["balancers"]["eu"]
    us = system["balancers"]["us"]
    eu.fail()
    env.run(until=1.0)
    record = system["controller"].failovers[0]
    assert record.failed_balancer == "sw@eu"
    # The US is the nearest healthy region to Europe in the default topology.
    assert record.takeover_balancer == "sw@us"
    assert "eu/replica-0" in record.replica_names
    assert any(r.name == "eu/replica-0" for r in us.local_replicas())


def test_failed_balancer_is_removed_from_dns(system):
    env = system["env"]
    system["balancers"]["eu"].fail()
    env.run(until=1.0)
    assert system["frontend"].dns.resolve("eu") != "sw@eu"


def test_recovery_transfers_replicas_back(system):
    env = system["env"]
    eu = system["balancers"]["eu"]
    us = system["balancers"]["us"]
    eu.fail()
    env.run(until=5.0)  # recovery_time_s = 2.0, plus detection latency
    record = system["controller"].failovers[0]
    assert record.recovered_at is not None
    assert eu.healthy
    assert any(r.name == "eu/replica-0" for r in eu.local_replicas())
    assert all(r.name != "eu/replica-0" for r in us.local_replicas())
    assert system["frontend"].dns.resolve("eu") == "sw@eu"


def test_stranded_requests_are_rerouted_and_completed(system):
    env = system["env"]
    eu = system["balancers"]["eu"]
    request = make_request(prompt_len=20, output_len=2, region="eu")
    request.sent_time = 0.0
    system["tracker"].register(request)
    eu.inbox.put(request)
    eu.fail()
    env.run(until=15.0)
    assert request.finished
    assert system["tracker"].num_completed == 1


def test_traffic_keeps_flowing_during_the_outage(system):
    env = system["env"]
    frontend = system["frontend"]
    tracker = system["tracker"]
    system["balancers"]["eu"].fail()
    env.run(until=0.5)  # let the controller detect and repoint DNS

    requests = [make_request(prompt_len=20, output_len=2, region="eu") for _ in range(3)]

    def feeder(env):
        for request in requests:
            request.sent_time = env.now
            tracker.register(request)
            frontend.dispatch(request)
            yield env.timeout(0.1)

    env.process(feeder(env))
    env.run(until=30.0)
    assert all(r.finished for r in requests)


def test_multiple_concurrent_failures_are_tolerated(system):
    env = system["env"]
    system["balancers"]["eu"].fail()
    system["balancers"]["asia"].fail()
    env.run(until=10.0)
    assert len(system["controller"].failovers) == 2
    assert all(record.recovered_at is not None for record in system["controller"].failovers)
    assert all(balancer.healthy for balancer in system["balancers"].values())


def test_rebuild_state_reports_current_ownership(system):
    mapping = system["controller"].rebuild_state()
    assert mapping["sw@us"] == ["us/replica-0"]
    assert mapping["sw@eu"] == ["eu/replica-0"]
    assert mapping["sw@asia"] == ["asia/replica-0"]
