"""Tests for the SkyWalker regional load balancer (Algorithm 1)."""

from repro.core import (
    BlindPushing,
    ConsistentHashSelection,
    GDPRConstraint,
    PrefixTreeSelection,
    SkyWalkerBalancer,
)
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Environment

from ..conftest import make_request


def make_balancer(env, network, region, **kwargs) -> SkyWalkerBalancer:
    return SkyWalkerBalancer(env, f"sw@{region}", region, network, probe_interval_s=0.05, **kwargs)


def submit(env, network, balancer, requests, spacing=0.0, region=None):
    """Deliver requests to a balancer's inbox from its own region."""

    def feeder(env):
        for request in requests:
            request.sent_time = env.now
            request.arrival_time = env.now
            network.deliver(request, region or request.region, balancer.region, balancer.inbox)
            if spacing:
                yield env.timeout(spacing)
        if not spacing:
            yield env.timeout(0)

    env.process(feeder(env))


# ----------------------------------------------------------------------
# local routing
# ----------------------------------------------------------------------
def test_requests_are_served_by_local_replicas_when_available(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    replicas = [make_tiny_replica("us") for _ in range(2)]
    for replica in replicas:
        balancer.add_replica(replica)
    balancer.start()

    requests = [make_request(prompt_len=20, output_len=2, region="us") for _ in range(4)]
    submit(env, network, balancer, requests, spacing=0.2)
    env.run(until=30)
    assert all(r.finished for r in requests)
    assert all(r.serving_region == "us" for r in requests)
    assert balancer.local_dispatches == 4
    assert balancer.remote_forwards == 0


def test_prefix_affinity_routes_same_session_to_same_replica(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    for _ in range(3):
        balancer.add_replica(make_tiny_replica("us"))
    balancer.start()

    shared = tuple(range(10_000, 10_200))
    requests = [
        make_request(prompt_len=260, prefix=shared, output_len=1, region="us",
                     user_id="alice", session_id="alice/s0")
        for _ in range(5)
    ]
    submit(env, network, balancer, requests, spacing=1.0)
    env.run(until=60)
    assert all(r.finished for r in requests)
    # After the first request seeds the prefix tree, the rest follow it.
    replicas_used = {r.replica_name for r in requests[1:]}
    assert len(replicas_used) == 1


def test_consistent_hash_variant_keeps_user_on_one_replica(env, network, make_tiny_replica):
    balancer = make_balancer(
        env, network, "us",
        selection_policy=ConsistentHashSelection(),
        hash_key_fn=lambda request: request.user_id,
    )
    for _ in range(4):
        balancer.add_replica(make_tiny_replica("us"))
    balancer.start()

    requests = [
        make_request(prompt_len=30, output_len=1, region="us", user_id="bob")
        for _ in range(6)
    ]
    submit(env, network, balancer, requests, spacing=1.0)
    env.run(until=60)
    assert all(r.finished for r in requests)
    assert len({r.replica_name for r in requests}) == 1


def test_low_prefix_affinity_spreads_load(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    for _ in range(3):
        balancer.add_replica(make_tiny_replica("us"))
    balancer.start()

    # Twelve completely unrelated prompts arriving close together: with no
    # prefix affinity anywhere the balancer falls back to load spreading.
    requests = [make_request(prompt_len=40, output_len=50, region="us") for _ in range(12)]
    submit(env, network, balancer, requests, spacing=0.01)
    env.run(until=60)
    assert all(r.finished for r in requests)
    assert len({r.replica_name for r in requests}) >= 2


# ----------------------------------------------------------------------
# cross-region behaviour
# ----------------------------------------------------------------------
def _two_region_setup(env, network, make_tiny_replica, **kwargs):
    us = make_balancer(env, network, "us", **kwargs)
    eu = make_balancer(env, network, "eu", **kwargs)
    us_replica = make_tiny_replica("us")
    eu_replica = make_tiny_replica("eu")
    us.add_replica(us_replica)
    eu.add_replica(eu_replica)
    us.add_peer(eu)
    eu.add_peer(us)
    us.start()
    eu.start()
    return us, eu, us_replica, eu_replica


def test_requests_stay_local_while_capacity_allows(env, network, make_tiny_replica):
    us, eu, us_replica, eu_replica = _two_region_setup(env, network, make_tiny_replica)
    requests = [make_request(prompt_len=20, output_len=2, region="us") for _ in range(3)]
    submit(env, network, us, requests, spacing=1.0)
    env.run(until=30)
    assert all(r.finished for r in requests)
    assert all(r.serving_region == "us" for r in requests)
    assert us.remote_forwards == 0


def test_overloaded_region_offloads_to_remote_region(env, network, make_tiny_replica):
    us, eu, us_replica, eu_replica = _two_region_setup(env, network, make_tiny_replica)
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    # Saturate the single US replica with two huge long-running requests,
    # then send small ones: they must be offloaded to the idle EU replica.
    blockers = [make_request(prompt_len=big, output_len=800, region="us") for _ in range(2)]
    small = [make_request(prompt_len=20, output_len=2, region="us") for _ in range(3)]
    submit(env, network, us, blockers + small, spacing=0.3)
    env.run(until=90)
    assert all(r.finished for r in small)
    offloaded = [r for r in small if r.serving_region == "eu"]
    assert offloaded, "at least one small request must be served remotely"
    assert us.remote_forwards >= 1
    assert all(r.forward_hops == 1 for r in offloaded)
    assert eu.received_forwards >= 1


def test_forwarded_requests_are_never_forwarded_again(env, network, make_tiny_replica):
    us, eu, us_replica, eu_replica = _two_region_setup(env, network, make_tiny_replica)
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    blockers = [make_request(prompt_len=big, output_len=800, region="us") for _ in range(2)]
    small = [make_request(prompt_len=20, output_len=2, region="us") for _ in range(4)]
    submit(env, network, us, blockers + small, spacing=0.3)
    env.run(until=90)
    assert all(r.forward_hops <= 1 for r in blockers + small)


def test_region_local_mode_never_offloads(env, network, make_tiny_replica):
    us = make_balancer(env, network, "us", allow_remote=False)
    eu = make_balancer(env, network, "eu", allow_remote=False)
    us.add_replica(make_tiny_replica("us"))
    eu.add_replica(make_tiny_replica("eu"))
    us.add_peer(eu)
    eu.add_peer(us)
    us.start()
    eu.start()
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    requests = [make_request(prompt_len=big, output_len=100, region="us") for _ in range(3)]
    submit(env, network, us, requests, spacing=0.2)
    env.run(until=120)
    assert us.remote_forwards == 0
    assert all(r.serving_region in (None, "us") for r in requests)


def test_gdpr_constraint_blocks_eu_offload_to_us(env, network, make_tiny_replica):
    constraint = GDPRConstraint(network.topology)
    eu = make_balancer(env, network, "eu", constraint=constraint)
    us = make_balancer(env, network, "us", constraint=constraint)
    eu.add_replica(make_tiny_replica("eu"))
    us.add_replica(make_tiny_replica("us"))
    eu.add_peer(us)
    us.add_peer(eu)
    eu.start()
    us.start()
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    blockers = [make_request(prompt_len=big, output_len=800, region="eu") for _ in range(2)]
    small = [make_request(prompt_len=20, output_len=2, region="eu") for _ in range(3)]
    submit(env, network, eu, blockers + small, spacing=0.3, region="eu")
    env.run(until=60)
    # EU-origin traffic may never be served in the US.
    assert eu.remote_forwards == 0
    assert all(r.serving_region in (None, "eu") for r in blockers + small)


def test_blind_pushing_dispatches_even_to_full_replicas(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us", pushing_policy=BlindPushing())
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    balancer.start()
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    requests = [make_request(prompt_len=big, output_len=300, region="us") for _ in range(3)]
    submit(env, network, balancer, requests, spacing=0.1)
    env.run(until=0.5)
    # Everything was pushed immediately; nothing is queued at the balancer
    # even though only one request fits in the replica's memory.
    assert balancer.queue_size == 0
    assert replica.num_outstanding == 3
    assert replica.num_pending >= 2


def test_selective_pushing_queues_at_the_balancer(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    balancer.start()
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    requests = [make_request(prompt_len=big, output_len=300, region="us") for _ in range(4)]
    submit(env, network, balancer, requests, spacing=0.05)
    env.run(until=0.8)
    # With SP-P the balancer holds back work once the replica stops admitting.
    # (Probe staleness can let a request or two slip through, but the bulk of
    # the backlog stays queued at the balancer instead of piling up on the
    # replica, which is the behaviour blind pushing lacks.)
    assert balancer.queue_size >= 1
    assert replica.num_pending <= 2


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
def test_add_and_remove_replica_updates_rings_and_tries(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    assert replica.name in balancer.replica_ring
    removed = balancer.remove_replica(replica.name)
    assert removed is replica
    assert replica.name not in balancer.replica_ring
    assert balancer.replicas() == []


def test_selection_policy_object_sets_routing_name(env, network):
    class UnitTestSelection(PrefixTreeSelection):
        routing = "unit-test-routing"

    policy = UnitTestSelection()
    balancer = SkyWalkerBalancer(env, "custom", "us", network, selection_policy=policy)
    assert balancer.selection is policy
    assert balancer.routing == "unit-test-routing"
    default = SkyWalkerBalancer(env, "default", "us", network)
    assert isinstance(default.selection, PrefixTreeSelection)
    assert default.routing == "prefix_tree"


def test_fail_strands_queued_requests_and_recover_restarts(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    balancer.add_replica(make_tiny_replica("us"))
    request = make_request(region="us")
    balancer.inbox.put(request)
    env.run(until=0.01)
    stranded = balancer.fail()
    assert request in stranded
    assert not balancer.healthy
    # The controller picks the stranded requests up exactly once.
    assert balancer.take_stranded() == stranded
    assert balancer.take_stranded() == []
    balancer.recover()
    assert balancer.healthy


def test_recover_clears_prefix_trees_but_keeps_rings(env, network, make_tiny_replica):
    """Regression: a recovered balancer must not route on pre-failure
    affinity data -- the replicas' caches were churned by the takeover
    balancer while it was down.  Membership-derived state (hash rings)
    stays; the controller re-drives membership itself."""
    us = make_balancer(env, network, "us")
    eu = make_balancer(env, network, "eu")
    replica = make_tiny_replica("us")
    us.add_replica(replica)
    us.add_peer(eu)
    prompt = tuple(range(64))
    us.replica_trie.insert(prompt, replica.name)
    us.snapshot_trie.insert(prompt, eu.name)
    assert us.replica_trie.total_tokens > 0

    us.start()
    env.run(until=0.01)
    us.fail()
    us.recover()

    assert us.healthy
    assert us.replica_trie.total_tokens == 0
    assert us.snapshot_trie.total_tokens == 0
    assert us.replica_trie.best_target(prompt, [replica.name]).target is None
    assert us.snapshot_trie.best_target(prompt, [eu.name]).target is None
    # Rings survive: membership is re-driven by the controller, not lost.
    assert replica.name in us.replica_ring
    assert eu.name in us.balancer_ring


def test_estimated_load_uses_public_dispatch_accessor(env, network, make_tiny_replica):
    balancer = make_balancer(env, network, "us")
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    # Optimistic seed probe reports zero outstanding; two un-probed
    # dispatches must still be counted.
    assert balancer.estimated_load(replica) == 0
    balancer.monitor.note_dispatch(replica.name)
    balancer.monitor.note_dispatch(replica.name)
    assert balancer.monitor.dispatched_since_probe(replica.name) == 2
    assert balancer.estimated_load(replica) == 2


# ----------------------------------------------------------------------
# listener hygiene across add/remove cycles (controller takeovers)
# ----------------------------------------------------------------------
def test_remove_replica_detaches_listeners_and_readd_does_not_stack(env, network, make_tiny_replica):
    balancer = SkyWalkerBalancer(env, "lb@us", "us", network)
    replica = make_tiny_replica("us")

    for _ in range(3):  # repeated takeover/recover cycles
        balancer.add_replica(replica)
        balancer.remove_replica(replica.name)
    balancer.add_replica(replica)
    # Exactly one completion and one health listener from this balancer.
    assert replica._on_complete.count(balancer._on_replica_complete) == 1
    assert replica._on_health.count(balancer._on_replica_health) == 1

    # outstanding is decremented exactly once per completion.
    request = make_request(region="us")
    request.replica_name = replica.name
    balancer.outstanding[replica.name] = 2
    for callback in replica._on_complete:
        callback(request)
    assert balancer.outstanding[replica.name] == 1


def test_duplicate_add_replica_is_idempotent(env, network, make_tiny_replica):
    balancer = SkyWalkerBalancer(env, "lb@us", "us", network)
    replica = make_tiny_replica("us")
    balancer.add_replica(replica)
    balancer.add_replica(replica)
    assert replica._on_complete.count(balancer._on_replica_complete) == 1
    assert len(balancer.replicas()) == 1
