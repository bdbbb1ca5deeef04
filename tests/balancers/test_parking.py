"""The no-healthy-replica path: requests park FIFO and drain on recovery.

Before the unified ``BalancerBase`` serving loop, a balancer that found no
healthy replica re-``put`` the request into its own inbox (reordering it
behind newer arrivals) and busy-polled every 0.1 s.  Now requests are parked
in arrival order and drained as soon as a replica reports recovery.
"""

from repro.balancers import GatewayBalancer, RoundRobinBalancer
from repro.network import Network, default_topology

from ..conftest import make_request


def _network(env):
    return Network(env, default_topology(), jitter_fraction=0.0, seed=0)


def _feed(env, net, balancer, requests, spacing=0.05):
    def feeder(env):
        for request in requests:
            request.sent_time = env.now
            net.deliver(request, "us", balancer.region, balancer.inbox)
            yield env.timeout(spacing)

    env.process(feeder(env))


def test_requests_park_while_all_replicas_down_and_drain_fifo(env, make_tiny_replica):
    net = _network(env)
    balancer = RoundRobinBalancer(env, "rr", "us", net)
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    balancer.start()

    replica.fail()
    requests = [make_request(prompt_len=8, output_len=2, region="us") for _ in range(5)]
    _feed(env, net, balancer, requests)

    env.run(until=5.0)
    # Everything arrived while the only replica was down: the head request is
    # parked and the rest wait in the inbox, arrival order intact.
    assert balancer.dispatched_requests == 0
    assert list(balancer.queue) == requests[:1]
    assert balancer.queue_size == 5

    replica.recover()
    env.run(until=30.0)
    assert balancer.dispatched_requests == 5
    assert not balancer.queue
    assert all(r.finished for r in requests)
    # FIFO drain: dispatch order matches arrival order.
    dispatch_times = [r.lb_dispatch_time for r in requests]
    assert dispatch_times == sorted(dispatch_times)
    arrival_order = sorted(requests, key=lambda r: r.lb_arrival_time)
    assert [r.lb_dispatch_time for r in arrival_order] == dispatch_times


def test_parked_requests_drain_before_newer_inbox_arrivals(env, make_tiny_replica):
    net = _network(env)
    balancer = RoundRobinBalancer(env, "rr", "us", net)
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    balancer.start()

    replica.fail()
    early = [make_request(prompt_len=8, output_len=2, region="us") for _ in range(3)]
    _feed(env, net, balancer, early)
    env.run(until=2.0)
    assert balancer.queue_size == 3

    # Recover, and race newer requests against the parked backlog.
    replica.recover()
    late = [make_request(prompt_len=8, output_len=2, region="us") for _ in range(2)]
    _feed(env, net, balancer, late)
    env.run(until=40.0)

    assert all(r.finished for r in early + late)
    earliest_late = min(r.lb_dispatch_time for r in late)
    # Every parked (earlier) request was dispatched before any late one.
    assert all(r.lb_dispatch_time <= earliest_late for r in early)


def test_gateway_parks_and_recovers_too(env, make_tiny_replica):
    net = _network(env)
    gateway = GatewayBalancer(env, "gw-us", "us", net)
    replicas = [make_tiny_replica("us"), make_tiny_replica("eu")]
    for replica in replicas:
        gateway.add_replica(replica)
    gateway.start()

    for replica in replicas:
        replica.fail()
    requests = [make_request(prompt_len=8, output_len=2, region="us") for _ in range(4)]
    _feed(env, net, gateway, requests)
    env.run(until=3.0)
    assert gateway.dispatched_requests == 0
    assert gateway.queue_size == 4

    replicas[1].recover()  # only the remote cluster comes back
    env.run(until=40.0)
    assert gateway.dispatched_requests == 4
    assert all(r.finished for r in requests)
    assert all(r.serving_region == "eu" for r in requests)
