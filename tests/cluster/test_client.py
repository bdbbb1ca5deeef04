"""Tests for the request tracker, frontend and clients."""

import pytest

from repro.cluster import ClosedLoopClient, Frontend, RequestTracker
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Environment, Store
from repro.workloads import Program
from repro.workloads.request import Request

from ..conftest import make_request


class StubBalancer:
    """Minimal balancer endpoint: records what it receives."""

    def __init__(self, env, name, region):
        self.env = env
        self.name = name
        self.region = region
        self.inbox = Store(env)


def test_tracker_completes_registered_requests(env):
    tracker = RequestTracker(env)
    request = make_request()
    event = tracker.register(request)
    assert tracker.outstanding == 1
    tracker.complete(request)
    assert event.triggered
    assert tracker.completed == [request]
    assert tracker.outstanding == 0


def test_tracker_fail_also_releases_waiters(env):
    tracker = RequestTracker(env)
    request = make_request()
    event = tracker.register(request)
    tracker.fail(request)
    assert event.triggered
    assert tracker.failed == [request]


def test_frontend_dispatches_to_nearest_balancer(env):
    network = Network(env, default_topology(), jitter_fraction=0.0)
    frontend = Frontend(env, network)
    us = StubBalancer(env, "lb-us", "us")
    eu = StubBalancer(env, "lb-eu", "eu")
    frontend.register_balancer(us)
    frontend.register_balancer(eu)

    request = make_request(region="eu")
    request.sent_time = 0.0
    frontend.dispatch(request)
    env.run()
    assert len(eu.inbox.items) == 1
    assert len(us.inbox.items) == 0
    assert request.ingress_region == "eu"


def test_frontend_respects_health_state(env):
    network = Network(env, default_topology(), jitter_fraction=0.0)
    frontend = Frontend(env, network)
    us = StubBalancer(env, "lb-us", "us")
    eu = StubBalancer(env, "lb-eu", "eu")
    frontend.register_balancer(us)
    frontend.register_balancer(eu)
    frontend.set_health("lb-us", False)

    request = make_request(region="us")
    frontend.dispatch(request)
    env.run()
    assert len(eu.inbox.items) == 1


def test_frontend_raises_when_no_balancer_is_healthy(env):
    network = Network(env, default_topology(), jitter_fraction=0.0)
    frontend = Frontend(env, network)
    with pytest.raises(RuntimeError):
        frontend.dispatch(make_request())


def _make_program(program_id, stages, region="us", user="user-0"):
    return Program(program_id=program_id, user_id=user, region=region, stages=stages)


def test_closed_loop_client_waits_for_each_stage(env):
    """Stage k+1 must not be issued before stage k's responses returned."""
    network = Network(env, default_topology(), jitter_fraction=0.0)
    frontend = Frontend(env, network)
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    tracker = RequestTracker(env)
    replica.add_completion_listener(tracker.complete)

    class DirectBalancer(StubBalancer):
        """Forwards straight to the replica (keeps the test focused)."""

    balancer = DirectBalancer(env, "lb-us", "us")
    frontend.register_balancer(balancer)

    def pump(env):
        while True:
            request = yield balancer.inbox.get()
            yield replica.submit(request)

    env.process(pump(env))

    first = make_request(prompt_len=10, output_len=2)
    second = make_request(prompt_len=10, output_len=2)
    program = _make_program("p0", [[first], [second]])
    client = ClosedLoopClient(
        env, "client-0", "us", frontend, tracker, [program]
    )
    env.run(until=60)
    assert client.completed_programs == 1
    assert client.issued_requests == 2
    # The second stage was sent only after the first stage completed.
    assert second.sent_time >= first.finish_time


def test_closed_loop_client_issues_stage_requests_concurrently(env):
    network = Network(env, default_topology(), jitter_fraction=0.0)
    frontend = Frontend(env, network)
    balancer = StubBalancer(env, "lb-us", "us")
    frontend.register_balancer(balancer)
    tracker = RequestTracker(env)

    a = make_request(prompt_len=5, output_len=1)
    b = make_request(prompt_len=5, output_len=1)
    program = _make_program("p1", [[a, b]])
    ClosedLoopClient(env, "client-0", "us", frontend, tracker, [program])
    env.run(until=1.0)
    assert a.sent_time == b.sent_time == 0.0
    assert len(balancer.inbox.items) == 2
