"""Contended transit as timer callbacks against the process-per-message
oracle.

A contended cross-region message is a chain of timers over a per-message
record, queueing at each finite-bandwidth edge in a per-edge FIFO.  That is
exact only if every jitter draw and every FIFO enqueue happens in the event
that made it when each message was a generator process holding a
``Resource`` grant.  These tests run the same seeded contended cells with
:class:`~repro.net.Network` and with
:class:`~tests.net.process_transit.ProcessTransitNetwork`, and compare:

* every item put into a store, with the time it was put, in order (each
  message delivery among them);
* the final jitter and fault RNG states;
* ``RunMetrics.to_dict()``.

The oracle's :class:`~tests.net.process_transit.Resource` keeps its own unit
tests at the end of this module.
"""

from dataclasses import dataclass, replace
from typing import Optional

import pytest

import repro.net.routed as routed
import repro.workloads.request as request_module
from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_tot_workload,
    run_experiment,
)
from repro.faults import (
    FaultSchedule,
    LinkDegrade,
    LinkDown,
    LinkLatencySpike,
    RegionPartition,
)
from repro.mem import MemoryConfig
from repro.net import NetConfig, Network, build_routed_network
from repro.network import default_topology
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment, Store

from .process_transit import ProcessTransitNetwork, Resource

#: The tiny profile with room for long tree-of-thoughts prompts.
_PROFILE = replace(TINY_TEST_PROFILE, gpu_memory_bytes=100_000)
_BACKBONE = dict(
    topology="backbone", wan_bandwidth_bytes_per_s=1e6, kv_bytes_per_token=64.0
)


@dataclass(frozen=True)
class Cell:
    net: NetConfig
    faults: Optional[FaultSchedule] = None
    memory: Optional[MemoryConfig] = None


CELLS = {
    "redundancy-2": Cell(NetConfig(topology_args=(("redundancy", 2),), **_BACKBONE)),
    # Access links contend too: a message queues at up to three edges in
    # series.
    "access-bandwidth": Cell(
        NetConfig(topology_args=(("access_bandwidth_bytes_per_s", 4e5),), **_BACKBONE)
    ),
    # Zero-size requests and responses queue behind pushed KV prefixes.
    "zero-size-messages": Cell(
        NetConfig(request_bytes_per_token=0.0, response_bytes_per_token=0.0, **_BACKBONE)
    ),
    # Pushes pay a transfer delay before they reach the wire.
    "push-extra-delay": Cell(
        NetConfig(**_BACKBONE),
        memory=MemoryConfig(push_latency_s=0.002, push_bandwidth_bytes_per_s=2e8),
    ),
    "degrade-and-spike": Cell(
        NetConfig(**_BACKBONE),
        FaultSchedule.single(
            2.0,
            LinkDegrade(
                a="wan/north-america",
                b="wan/europe",
                loss_probability=0.5,
                extra_jitter_fraction=1.5,
                duration_s=6.0,
            ),
        ).add(5.0, LinkLatencySpike(a="us", b="wan/north-america", extra_s=0.05, duration_s=3.0)),
    ),
    # Messages in flight over the downed edge finish over their captured
    # path; a partition cuts the pair while its transits are queued.
    "edge-down-and-partition": Cell(
        NetConfig(**_BACKBONE),
        FaultSchedule.single(
            1.0, LinkDown(a="wan/north-america", b="wan/europe", duration_s=2.0)
        ).add(2.5, RegionPartition(a="us", b="asia", duration_s=2.0)),
    ),
    "responses-off": Cell(NetConfig(model_responses=False, **_BACKBONE)),
}


def _run_cell(name):
    cell = CELLS[name]
    config = ExperimentConfig(
        # Blind pushes with no US replicas: every US request ships its whole
        # prompt's KV over the backbone.
        system=REGISTRY.spec("skywalker", pushing="BP", hash_key="session"),
        cluster=ClusterConfig(
            replicas_per_region={"us": 0, "eu": 1, "asia": 1},
            profile=_PROFILE,
            network=cell.net,
            memory=cell.memory,
        ),
        duration_s=10.0,
        seed=4,
        faults=cell.faults,
    )
    return run_experiment(config, build_tot_workload(scale=0.2, seed=5))


def _record_puts(patch):
    """Log every item put into any store as ``(time, item)``; requests are
    named by their place in the run's creation order."""
    puts = []
    first_id = next(request_module._request_counter) + 1

    def describe(item):
        if isinstance(item, request_module.Request):
            return item.request_id - first_id
        return repr(item)

    for name in ("put", "put_nowait"):
        original = getattr(Store, name)

        def recorded(store, item, _original=original):
            puts.append((store.env.now, describe(item)))
            return _original(store, item)

        patch.setattr(Store, name, recorded)
    return puts


def _observed_run(name, network_cls):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routed, "Network", network_cls)
        puts = _record_puts(patch)
        result = _run_cell(name)
    network = result.frontend.network
    assert type(network) is network_cls
    fault_rng = network._fault_rng and network._fault_rng.getstate()
    return result, puts, network._rng.getstate(), fault_rng


@pytest.mark.parametrize("name", sorted(CELLS))
def test_callback_transit_matches_the_process_oracle(name):
    oracle, oracle_puts, oracle_rng, oracle_fault_rng = _observed_run(
        name, ProcessTransitNetwork
    )
    result, puts, rng, fault_rng = _observed_run(name, Network)
    assert oracle.metrics.num_completed > 0
    assert len(puts) == len(oracle_puts)
    assert puts == oracle_puts
    assert rng == oracle_rng
    assert fault_rng == oracle_fault_rng
    assert result.metrics.to_dict() == oracle.metrics.to_dict()
    # Grants, StorePuts and process ends are no longer events.
    assert result.env._eid < oracle.env._eid


def test_the_differential_cells_reach_every_transit_path():
    """The cells queue at edges (a zero-size message behind a large one
    among them), run contended hops in series, delay pushes, forward over a
    downed edge and drop at a partition, with and without responses."""
    seen = {name: set() for name in CELLS}
    current = []
    start = Network._start_transit
    forward = Network._forward
    transmitted = Network._transmitted

    def noting_start(network, item, src, dst, inbox, extra_delay, size_bytes):
        if extra_delay > 0:
            seen[current[-1]].add("push-extra-delay")
        return start(network, item, src, dst, inbox, extra_delay, size_bytes)

    def noting_forward(network, timer):
        transit = timer.value
        paths = seen[current[-1]]
        if sum(bandwidth > 0 for _, _, bandwidth in transit.legs) > 1:
            paths.add("hops-in-series")
        if transit.inbox is None:
            paths.add("response-stream")
        return forward(network, timer)

    def noting_transmitted(network, timer):
        transit = timer.value
        edge = transit.legs[transit.hop][0]
        if edge in network._down_edges:
            seen[current[-1]].add("over-a-downed-edge")
        queue = network._edge_queues[edge]
        if len(queue) > 1:
            seen[current[-1]].add("queued")
            if queue[1].size_bytes == 0 and transit.size_bytes > 0:
                seen[current[-1]].add("zero-size-behind-large")
        return transmitted(network, timer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "_start_transit", noting_start)
        patch.setattr(Network, "_forward", noting_forward)
        patch.setattr(Network, "_transmitted", noting_transmitted)
        for name in sorted(CELLS):
            current.append(name)
            if _run_cell(name).frontend.network.dropped_messages:
                seen[name].add("dropped")
    assert all("queued" in paths for paths in seen.values())
    assert "hops-in-series" in seen["access-bandwidth"]
    assert "hops-in-series" not in seen["redundancy-2"]
    assert "zero-size-behind-large" in seen["zero-size-messages"]
    assert "push-extra-delay" in seen["push-extra-delay"]
    assert "push-extra-delay" not in seen["redundancy-2"]
    assert "dropped" in seen["degrade-and-spike"]
    assert {"over-a-downed-edge", "dropped"} <= seen["edge-down-and-partition"]
    assert "response-stream" in seen["redundancy-2"]
    assert "response-stream" not in seen["responses-off"]


def _directed(network_cls, script, **config):
    """Run ``script(network, inbox)`` -- a generator -- on a jittered
    contended backbone; returns the arrivals, the final jitter RNG state and
    the network."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routed, "Network", network_cls)
        network = build_routed_network(
            Environment(),
            NetConfig(topology="backbone", wan_bandwidth_bytes_per_s=1000.0, **config),
            default_topology(),
            jitter_fraction=0.05,
            seed=3,
        )
    env = network.env
    inbox = Store(env)
    arrivals = []

    def consume():
        while True:
            item = yield inbox.get()
            arrivals.append((env.now, item))

    env.process(script(network, inbox))
    env.process(consume())
    env.run(until=5.0)
    return arrivals, network._rng.getstate(), network


def test_a_transit_draws_after_the_rest_of_its_sending_event():
    """The same-region message's jitter is drawn in the sending event; the
    transit's first hop is drawn from its start timer, afterwards."""

    def send_in_one_event(network, inbox):
        yield network.env.timeout(0.5)
        network.deliver("contended", "us", "eu", inbox, size_bytes=500.0)
        network.deliver("local", "us", "us", inbox)

    arrivals, rng, _ = _directed(Network, send_in_one_event)
    assert [item for _, item in arrivals] == ["local", "contended"]
    assert (arrivals, rng) == _directed(ProcessTransitNetwork, send_in_one_event)[:2]


def test_a_transit_captures_its_path_when_it_reaches_the_wire():
    """A backbone edge goes down while one message is transmitting over it
    and another is still paying its push delay: the first finishes over the
    downed edge, the second takes the surviving plane."""
    cut = ("wan/north-america/a", "wan/europe/a")

    def cut_mid_transit(network, inbox):
        network.deliver("in-flight", "us", "eu", inbox, size_bytes=1000.0)
        network.deliver("pushed", "us", "eu", inbox, extra_delay=1.0, size_bytes=100.0)
        yield network.env.timeout(0.5)
        network.set_edge_down(*cut)

    redundant = dict(topology_args=(("redundancy", 2),))
    arrivals, rng, network = _directed(Network, cut_mid_transit, **redundant)
    assert [item for _, item in arrivals] == ["in-flight", "pushed"]
    detour = network.route("us", "eu")
    assert cut not in zip(detour, detour[1:])
    assert set(network._edge_queues) == {cut, detour[1:3]}
    oracle = _directed(ProcessTransitNetwork, cut_mid_transit, **redundant)
    assert (arrivals, rng) == oracle[:2]


# ----------------------------------------------------------------------
# the oracle's Resource
# ----------------------------------------------------------------------
def test_resource_limits_concurrency(env):
    resource = Resource(env, capacity=2)
    active = []
    max_active = []

    def worker(env, resource, duration):
        request = resource.request()
        yield request
        active.append(1)
        max_active.append(len(active))
        yield env.timeout(duration)
        active.pop()
        resource.release(request)

    for _ in range(5):
        env.process(worker(env, resource, 3))
    env.run()
    assert max(max_active) == 2


def test_resource_context_manager_releases(env):
    resource = Resource(env, capacity=1)
    order = []

    def worker(env, resource, label):
        with resource.request() as request:
            yield request
            order.append((label, env.now))
            yield env.timeout(2)

    env.process(worker(env, resource, "first"))
    env.process(worker(env, resource, "second"))
    env.run()
    assert order == [("first", 0.0), ("second", 2.0)]
    assert resource.count == 0


def test_resource_invalid_capacity(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)
