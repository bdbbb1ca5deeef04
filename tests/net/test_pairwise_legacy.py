"""The single :class:`~repro.network.Network` replays the retired pairwise
transport bit for bit.

``data/pairwise_legacy.json`` was recorded from the pairwise latency-matrix
network before it was folded into the graph-routed one.  On the default
``"mesh"`` topology every route is the direct hop, so latency samples,
jitter and fault-RNG draw order, delivery times and partition drops must
all reproduce the recording exactly -- that identity is what lets golden
traces and committed figure artifacts stay byte-identical.
``data/pairwise_legacy_sweep.json`` holds end-to-end run payloads recorded
on the pairwise transport; the CI ``net-smoke`` job checks the same cell.
"""

import json
from pathlib import Path

from repro.experiments import REGISTRY, ClusterConfig, build_tot_workload, run_sweep
from repro.network import Network, default_topology, wide_topology
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment, Store

DATA = Path(__file__).parent / "data"
PAIRWISE_LEGACY = DATA / "pairwise_legacy.json"
PAIRWISE_LEGACY_SWEEP = DATA / "pairwise_legacy_sweep.json"


def _network(topology=None, *, seed, jitter=0.05):
    return Network(
        Environment(), topology or default_topology(), jitter_fraction=jitter, seed=seed
    )


def _collect(network, sends):
    """Deliver ``(item, src, dst, extra_delay)`` sends, run to quiescence and
    return ``[[time, item], ...]`` in arrival order."""
    inbox = Store(network.env)
    arrivals = []

    def consume():
        while True:
            item = yield inbox.get()
            arrivals.append([network.env.now, item])

    network.env.process(consume())
    for item, src, dst, extra_delay in sends:
        network.deliver(item, src, dst, inbox, extra_delay=extra_delay)
    network.env.run(until=network.env.now + 10.0)
    return arrivals


def _counters(network):
    return [network.messages_sent, network.cross_region_messages, network.dropped_messages]


def _sampling_streams():
    """Three rounds of ``sample_one_way`` over every ordered region pair
    (same-region pairs included) of both built-in topologies."""
    streams = {}
    for name, make in (("default", default_topology), ("wide", wide_topology)):
        network = _network(make(), seed=3)
        regions = network.topology.region_names()
        streams[name] = [
            network.sample_one_way(src, dst)
            for _ in range(3)
            for src in regions
            for dst in regions
        ]
    return streams


def _spike_and_degrade():
    """A spike plus a lossy, jittery degrade on us<->eu: the jitter stream
    and the fault-RNG stream (degrade jitter and loss draws) interleave."""
    network = _network(seed=7)
    network.add_link_extra_latency("us", "eu", 0.05)
    network.add_link_degrade("us", "eu", loss_probability=0.2, extra_jitter_fraction=0.4)
    interleaved = [
        [network.sample_one_way("us", "eu"), network._message_lost("us", "eu")]
        for _ in range(20)
    ]
    reverse = [network.sample_one_way("eu", "us") for _ in range(5)]
    untouched = [network.sample_one_way("us", "asia") for _ in range(5)]
    sends = [(index, "us", "eu", 0.0) for index in range(20)]
    sends += [(100 + index, "eu", "us", 0.0) for index in range(10)]
    arrivals = _collect(network, sends)
    return {
        "interleaved": interleaved,
        "reverse": reverse,
        "untouched": untouched,
        "arrivals": arrivals,
        "counters": _counters(network),
    }


def _deliveries():
    """Arrival times with a payload-dependent ``extra_delay`` on top of the
    sampled link delay, plus same-region and third-pair traffic."""
    network = _network(seed=5)
    sends = [(index, "us", "eu", 0.01 * index) for index in range(10)]
    sends += [(f"local-{index}", "us", "us", 0.0) for index in range(3)]
    sends += [(f"far-{index}", "eu", "asia", 0.002 * index) for index in range(3)]
    arrivals = _collect(network, sends)
    return {"arrivals": arrivals, "counters": _counters(network)}


def _partition():
    """A symmetric us<->eu block drops both directions (scheduling nothing),
    leaves us->asia alone, and heals for new messages only."""
    network = _network(seed=1)
    network.set_link_blocked("us", "eu")
    blocked = [
        network.link_blocked("us", "eu"),
        network.link_blocked("eu", "us"),
        network.link_blocked("us", "asia"),
    ]
    during = _collect(
        network,
        [("lost-there", "us", "eu", 0.0), ("lost-back", "eu", "us", 0.0),
         ("arrives", "us", "asia", 0.0)],
    )
    counters_during = _counters(network)
    network.set_link_blocked("us", "eu", False)
    after = _collect(network, [("post-heal", "us", "eu", 0.0), ("back", "eu", "us", 0.0)])
    return {
        "blocked": blocked,
        "during": during,
        "counters_during": counters_during,
        "after": after,
        "counters_after": _counters(network),
    }


def record():
    """The fixture payload (also how ``data/pairwise_legacy.json`` was made)."""
    return {
        "sampling": _sampling_streams(),
        "spike_and_degrade": _spike_and_degrade(),
        "deliveries": _deliveries(),
        "partition": _partition(),
    }


def _fixture():
    return json.loads(PAIRWISE_LEGACY.read_text())


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


def test_sampling_streams_match_the_pairwise_recording():
    assert _roundtrip(_sampling_streams()) == _fixture()["sampling"]


def test_spike_and_degrade_draws_match_the_pairwise_recording():
    assert _roundtrip(_spike_and_degrade()) == _fixture()["spike_and_degrade"]


def test_delivery_times_match_the_pairwise_recording():
    assert _roundtrip(_deliveries()) == _fixture()["deliveries"]


def test_partition_drops_match_the_pairwise_recording():
    assert _roundtrip(_partition()) == _fixture()["partition"]


def test_mesh_routes_are_single_hop():
    for make in (default_topology, wide_topology):
        network = _network(make(), seed=0)
        regions = network.topology.region_names()
        for src in regions:
            for dst in regions:
                expected = (src,) if src == dst else (src, dst)
                assert network.route(src, dst) == expected


def test_default_network_sweep_matches_the_pairwise_recording():
    """skywalker and least-load on a tiny Tree-of-Thoughts cell, 20 s at
    seed 1: every ``RunMetrics.to_dict()`` field as recorded."""
    workload = build_tot_workload(scale=0.06, seed=2)
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("least-load")]
    cluster = ClusterConfig(
        replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
    )
    result = run_sweep(systems, [workload], cluster=cluster, duration_s=20.0, seed=1)
    payloads = {
        name: result.get(workload.name, name).to_dict()
        for name in result.systems(workload.name)
    }
    assert _roundtrip(payloads) == json.loads(PAIRWISE_LEGACY_SWEEP.read_text())
