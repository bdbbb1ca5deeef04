"""Tests for the routed network: multi-hop faults, re-convergence,
contention.  Its identity with the retired pairwise transport is pinned by
``test_pairwise_legacy.py``."""

import pytest

from repro.net import NetConfig, build_routed_network
from repro.network import Network, default_topology, wide_topology
from repro.sim import Environment, Store


def _routed(seed=0, jitter=0.05, **config_kwargs):
    env = Environment()
    return build_routed_network(
        env,
        NetConfig(**config_kwargs),
        default_topology(),
        jitter_fraction=jitter,
        seed=seed,
    )


def test_contention_off_is_default():
    routed = _routed()
    assert not routed.contention_enabled
    assert type(routed) is Network


# ----------------------------------------------------------------------
# probe round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", [default_topology, wide_topology])
@pytest.mark.parametrize("jitter", [0.05, 0.0])
def test_probe_delay_draws_what_sample_rtt_draws(topology, jitter):
    """``probe_delay``'s inlined fault-free path and its ``sample_rtt``
    fallback (spikes, degrades, no jitter) draw the same RTTs from the same
    RNGs in the same order as ``sample_rtt``, before, during and after a
    fault, and over asymmetric routes."""
    probed = Network(Environment(), topology(), jitter_fraction=jitter, seed=7)
    sampled = Network(Environment(), topology(), jitter_fraction=jitter, seed=7)
    regions = sorted(probed.graph.region_names())
    pairs = [(src, dst) for src in regions for dst in regions] * 3
    a, b, c = regions[:3]

    def phase():
        for src, dst in pairs:
            assert probed.probe_delay(src, dst).delay == sampled.sample_rtt(src, dst)

    def both(method, *args, **kwargs):
        for network in (probed, sampled):
            getattr(network, method)(*args, **kwargs)

    phase()
    both("add_link_extra_latency", a, b, 0.02)
    phase()
    both("add_link_degrade", b, c, extra_jitter_fraction=0.3)
    phase()
    both("remove_link_extra_latency", a, b, 0.02)
    phase()
    both("remove_link_degrade", b, c, extra_jitter_fraction=0.3)
    phase()
    # A one-way edge down reroutes a -> b only: the two legs differ.
    both("set_edge_down", a, b, symmetric=False)
    assert probed.route(a, b) != tuple(reversed(probed.route(b, a)))
    phase()
    assert probed.probe_count == 6 * len(pairs)
    assert probed._rng.getstate() == sampled._rng.getstate()
    assert probed._fault_rng.getstate() == sampled._fault_rng.getstate()


# ----------------------------------------------------------------------
# multi-hop fault composition (spike + degrade on one path)
# ----------------------------------------------------------------------
def test_spike_and_degrade_compose_additively_per_edge_and_revert_either_order():
    # jitter off so samples are exact sums.
    base = _routed(jitter=0.0, topology="backbone")
    path = base.route("us", "eu")
    assert path == ("us", "wan/north-america", "wan/europe", "eu")
    pristine = base.sample_one_way("us", "eu")
    assert pristine == pytest.approx(0.075)

    for revert_order in ("spike-first", "degrade-first"):
        network = _routed(jitter=0.0, topology="backbone")
        # A latency spike on the access edge and a (jitter-only) degrade on
        # the backbone edge: different edges, same us->eu path.
        network.add_link_extra_latency("us", "wan/north-america", 0.010)
        network.add_link_degrade(
            "wan/north-america", "wan/europe",
            loss_probability=0.0, extra_jitter_fraction=0.5,
        )
        sample = network.sample_one_way("us", "eu")
        # Spike applies on its edge; degrade jitter inflates its own edge by
        # at most 50% of that edge's (spiked) latency.
        backbone_leg = network.graph.latency("wan/north-america", "wan/europe")
        assert sample >= pristine + 0.010
        assert sample <= pristine + 0.010 + 0.5 * backbone_leg + 1e-12

        # A second spike on the same access edge stacks additively.
        network.add_link_extra_latency("us", "wan/north-america", 0.007)
        network._link_extra_jitter.clear()  # isolate the additive check
        assert network.sample_one_way("us", "eu") == pytest.approx(pristine + 0.017)
        network.remove_link_extra_latency("us", "wan/north-america", 0.007)

        reverts = [
            lambda n: n.remove_link_extra_latency("us", "wan/north-america", 0.010),
            lambda n: n.remove_link_degrade(
                "wan/north-america", "wan/europe",
                loss_probability=0.0, extra_jitter_fraction=0.5,
            ),
        ]
        if revert_order == "degrade-first":
            reverts.reverse()
        for revert in reverts:
            revert(network)
        # Clean revert: every surcharge table empty, samples pristine.
        assert network.sample_one_way("us", "eu") == pristine
        assert not network._extra_latency
        assert not network._link_extra_jitter
        assert not network._link_loss


def test_multi_hop_loss_draws_per_lossy_edge():
    network = _routed(jitter=0.0, topology="backbone", seed=11)
    network.add_link_degrade(
        "wan/north-america", "wan/europe", loss_probability=0.5,
        extra_jitter_fraction=0.0,
    )
    losses = [network._message_lost("us", "eu") for _ in range(200)]
    assert 40 < sum(losses) < 160  # draws happen, per seed, roughly p=0.5
    # The asia path never crosses the degraded edge: no draws, never lost.
    assert not any(network._message_lost("us", "asia") for _ in range(50))


# ----------------------------------------------------------------------
# partitions, edge downs, route events
# ----------------------------------------------------------------------
def test_partition_is_a_graph_cut_with_route_events():
    network = _routed(topology="backbone")
    network.set_link_blocked("us", "eu", True)
    assert not network.reachable("us", "eu")
    assert network.link_blocked("us", "eu")
    events = [event.as_tuple() for event in network.route_events]
    # Sorted pair order within the re-convergence; both directions cut.
    assert [(e[1], e[2], e[3], e[5]) for e in events] == [
        ("partition", "eu", "us", None),
        ("partition", "us", "eu", None),
    ]
    # Third-party routes survive.
    assert network.reachable("us", "asia")
    assert network.reachable("eu", "asia")

    network.set_link_blocked("us", "eu", False)
    assert network.reachable("us", "eu")
    heals = [event for event in network.route_events if event.reason == "heal"]
    assert len(heals) == 2
    assert all(event.old_path is None and event.new_path for event in heals)


def test_unreachable_pair_drops_messages_until_heal():
    network = _routed(topology="backbone")
    inbox = Store(network.env)
    network.set_link_blocked("us", "eu", True)
    network.deliver("lost", "us", "eu", inbox)
    assert network.dropped_messages == 1
    network.set_link_blocked("us", "eu", False)
    network.deliver("found", "us", "eu", inbox)
    network.env.run(until=1.0)
    assert list(inbox.items) == ["found"]


def test_edge_down_reroutes_on_redundant_backbone():
    network = _routed(topology="backbone", topology_args=(("redundancy", 2),))
    assert network.route("us", "eu") == ("us", "wan/north-america/a", "wan/europe/a", "eu")
    network.set_edge_down("wan/north-america/a", "wan/europe/a")
    # Still reachable: the policy re-converged onto the surviving plane.
    assert network.reachable("us", "eu")
    assert "wan/north-america/b" in network.route("us", "eu")
    assert any(event.reason == "link-down" for event in network.route_events)

    network.set_edge_down("wan/north-america/a", "wan/europe/a", False)
    assert network.route("us", "eu") == ("us", "wan/north-america/a", "wan/europe/a", "eu")
    assert any(event.reason == "link-up" for event in network.route_events)


def test_edge_down_unknown_edge_raises():
    network = _routed(topology="backbone")
    with pytest.raises(KeyError, match="'us' -> 'eu'"):
        network.set_edge_down("us", "eu")


def test_edge_downs_are_refcounted():
    network = _routed(topology="backbone", topology_args=(("redundancy", 2),))
    edge = ("wan/north-america/a", "wan/europe/a")
    network.set_edge_down(*edge)
    network.set_edge_down(*edge)
    network.set_edge_down(*edge, False)
    # One down remains: still routed around.
    assert "wan/north-america/b" in network.route("us", "eu")
    network.set_edge_down(*edge, False)
    assert network.route("us", "eu") == ("us", "wan/north-america/a", "wan/europe/a", "eu")


def test_disconnected_topology_rejected_at_build():
    from repro.net import WanGraph
    from repro.net.routing import ShortestPathRouting

    graph = WanGraph(default_topology())
    graph.add_edge("us", "eu", 0.075)  # asia left unconnected
    with pytest.raises(ValueError, match="asia"):
        Network(Environment(), graph.regions, graph=graph, policy=ShortestPathRouting())
    with pytest.raises(ValueError, match="topology"):
        Network(Environment(), default_topology(), graph=graph)


# ----------------------------------------------------------------------
# bandwidth contention
# ----------------------------------------------------------------------
def _contended(bandwidth, seed=0):
    return _routed(
        seed=seed,
        jitter=0.0,
        topology="backbone",
        wan_bandwidth_bytes_per_s=bandwidth,
        request_bytes_per_token=2.0,
        kv_bytes_per_token=64.0,
    )


def _arrivals(network, sends):
    inbox = Store(network.env)
    arrivals = []

    def consume():
        while True:
            item = yield inbox.get()
            arrivals.append((network.env.now, item))

    network.env.process(consume())
    for item, src, dst, size in sends:
        network.deliver(item, src, dst, inbox, size_bytes=size)
    network.env.run(until=60.0)
    return arrivals


def test_concurrent_messages_serialise_through_a_shared_edge():
    # 1000 B/s backbone edge: a 1000 B message occupies it for a full
    # second; the 100 B message behind it waits, then transmits 0.1 s.
    arrivals = _arrivals(
        _contended(1000.0),
        [("big", "us", "eu", 1000.0), ("small", "us", "eu", 100.0)],
    )
    assert [item for _, item in arrivals] == ["big", "small"]
    t_big, t_small = arrivals[0][0], arrivals[1][0]
    assert t_big == pytest.approx(0.075 + 1.0)
    # FIFO: small waited for big's transmission, then paid its own.
    assert t_small == pytest.approx(0.075 + 1.0 + 0.1)


def test_uncontended_edges_do_not_serialise():
    arrivals = _arrivals(
        _contended(0.0),
        [("big", "us", "eu", 1000.0), ("small", "us", "eu", 100.0)],
    )
    assert not _contended(0.0).contention_enabled
    for t, _ in arrivals:
        assert t == pytest.approx(0.075)


def test_distinct_edges_do_not_contend():
    # us->eu and asia->eu cross different backbone edges: no queueing.
    arrivals = _arrivals(
        _contended(1000.0),
        [("a", "us", "eu", 1000.0), ("b", "asia", "eu", 1000.0)],
    )
    times = sorted(t for t, _ in arrivals)
    assert times[0] == pytest.approx(0.075 + 1.0)
    assert times[1] == pytest.approx(0.100 + 1.0)


def test_zero_size_messages_still_queue_fifo():
    # A zero-byte message behind a large transfer waits for it (shared
    # FIFO), even though its own transmission is instant.
    arrivals = _arrivals(
        _contended(1000.0),
        [("big", "us", "eu", 1000.0), ("probe", "us", "eu", 0.0)],
    )
    assert [item for _, item in arrivals] == ["big", "probe"]
    assert arrivals[1][0] == pytest.approx(0.075 + 1.0)


def test_wire_sizes_come_from_config():
    network = _contended(1000.0)

    class FakeRequest:
        prompt_tokens = tuple(range(10))
        prompt_len = 10
        generated_tokens = 5
        output_len = 7

    assert network.request_wire_bytes(FakeRequest()) == 20.0
    assert network.push_wire_bytes(100) == 6400.0
    assert network.push_wire_bytes(-3) == 0.0
    assert network.response_wire_bytes(FakeRequest()) == 10.0


def test_netconfig_validation():
    with pytest.raises(ValueError, match="wan_bandwidth_bytes_per_s"):
        NetConfig(wan_bandwidth_bytes_per_s=-1.0)
    with pytest.raises(ValueError, match="request_bytes_per_token"):
        NetConfig(request_bytes_per_token=-1.0)
    with pytest.raises(ValueError, match="topology_args"):
        NetConfig(topology_args=("not-a-pair",))
    from repro.experiments import ClusterConfig

    assert ClusterConfig().network == NetConfig()
    with pytest.raises(TypeError, match="NetConfig"):
        ClusterConfig(network=None)


def test_finished_contended_run_is_freed_in_one_gc_pass():
    """A finished run's unfinished transits must not resurrect its
    environment when the GC collects them: when transits were generator
    processes, releasing an edge queue from a ``finally:`` scheduled into
    the dead env and kept the whole stack alive into the next simulation.

    Live environments are counted rather than watched through a weakref:
    the collector clears weakrefs *before* it runs finalizers, so a weakref
    reads dead even when a finalizer resurrects its referent."""
    import gc

    from repro.experiments import (
        REGISTRY,
        ClusterConfig,
        ExperimentConfig,
        build_tot_workload,
        run_experiment,
    )
    from repro.replica import TINY_TEST_PROFILE

    def live_environments():
        return sum(isinstance(obj, Environment) for obj in gc.get_objects())

    def run():
        config = ExperimentConfig(
            system=REGISTRY.spec("skywalker"),
            cluster=ClusterConfig(
                replicas_per_region={"us": 1, "eu": 1, "asia": 1},
                profile=TINY_TEST_PROFILE,
                network=NetConfig(
                    topology="backbone",
                    wan_bandwidth_bytes_per_s=2e5,
                    kv_bytes_per_token=4096.0,
                ),
            ),
            duration_s=10.0,
            seed=1,
        )
        result = run_experiment(config, build_tot_workload(scale=0.06, seed=2))
        queues = result.frontend.network._edge_queues.values()
        # Transits are still holding (at the head) and waiting for an edge
        # at the horizon.
        assert any(len(queue) > 1 for queue in queues)

    gc.collect()
    before = live_environments()
    gc.disable()  # the one collection below must be the one that frees it
    try:
        run()
        assert live_environments() == before + 1
        gc.collect()
        assert live_environments() == before
    finally:
        gc.enable()
