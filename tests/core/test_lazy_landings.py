"""Lazy peer-probe landings against the event-per-landing oracle.

The availability monitor keeps a peer probe's landing off the timeline
unless a parked balancer could hear it, and applies it from the peer's
state when something settles the environment.  That is exact only if every
input a landing reads settles before it changes.  These tests run the same
seeded 3-region skywalker cells with the lazy monitor and with
:class:`~tests.core.eager_monitor.EagerMonitor` across faults that move
each of those inputs, and compare:

* ``RunMetrics.to_dict()``;
* every probe record a balancer reads, in order, with the clock and the
  forward counters it was read with;
* every probe record a landing writes, read or not, in the order each
  reader's record of each peer was overwritten (a lazy landing writes later
  than the oracle's, but never out of turn);
* the ``(time, priority)`` of every event popped, apart from the landings.

Nothing here forces a landing to be applied: a missing settle shows up as a
record read with the wrong values.
"""

import random
from dataclasses import dataclass

import pytest

import repro.core.balancer as balancer_module
from repro.core import AvailabilityMonitor
from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_arena_workload,
    run_experiment,
)
from repro.faults import (
    BalancerFailure,
    FaultSchedule,
    FaultSpec,
    LinkDegrade,
    LinkDown,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    register_fault,
    unregister_fault,
)
from repro.net import NetConfig
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Deferred, Environment
from repro.workloads.request import Request

from .eager_monitor import EagerMonitor


@dataclass(frozen=True)
class ReattachPeer(FaultSpec):
    """Remove a peer from a balancer and add it straight back, with its
    probes still in flight (the controller's failover re-wiring)."""

    kind: str = "lazy-landings-reattach-peer"
    at_region: str = "us"
    peer_region: str = "eu"


def _reattach(spec, ctx, record):
    record.opens_window = False
    balancer = ctx.balancer_in(spec.at_region)
    peer = ctx.balancer_in(spec.peer_region)
    balancer.remove_peer(peer.name)
    balancer.add_peer(peer)


def _spike_schedule():
    schedule = FaultSchedule()
    for k in range(9):
        spike = LinkLatencySpike(a="us", b="eu", extra_s=0.4, duration_s=0.15)
        schedule = schedule.add(3.0 + 1.7 * k, spike)
    return schedule


def _reattach_schedule():
    schedule = FaultSchedule(use_controller=False)
    for start in (4.0, 4.05, 9.3, 9.31, 15.17):
        schedule = schedule.add(start, ReattachPeer())
    return schedule.add(9.0, BalancerFailure(region="eu", duration_s=2.0)).add(
        9.05, ReattachPeer(at_region="asia")
    )


SCENARIOS = {
    "no-faults": (None, None),
    "partition": (
        FaultSchedule.single(6.0, RegionPartition(a="us", b="eu", duration_s=5.0)),
        None,
    ),
    "backbone-edge-down": (
        FaultSchedule.single(5.0, LinkDown(a="wan/north-america", b="wan/europe", duration_s=5.0))
        .add(12.0, LinkDown(a="eu", b="wan/europe", duration_s=3.0)),
        NetConfig(topology="backbone"),
    ),
    "balancer-failure-controller": (
        FaultSchedule.single(
            6.0,
            BalancerFailure(region="eu", duration_s=3.0),
            controller_probe_interval_s=0.25,
        ),
        None,
    ),
    "balancer-failure-no-controller": (
        FaultSchedule(use_controller=False).add(
            6.0, BalancerFailure(region="eu", duration_s=4.0)
        ),
        None,
    ),
    "replica-crash": (
        FaultSchedule.single(5.0, ReplicaCrash(region="eu", duration_s=4.0))
        .add(7.0, ReplicaCrash(region="us", duration_s=1.5)),
        None,
    ),
    "link-degrade": (
        FaultSchedule.single(
            5.0, LinkDegrade(a="us", b="asia", extra_jitter_fraction=2.0, duration_s=8.0)
        ),
        None,
    ),
    # Short spikes: a probe sent during one lands after later probes sent
    # once it has healed.
    "latency-spikes": (_spike_schedule(), None),
    "reattach-peer": (_reattach_schedule(), None),
}


def _is_landing(event) -> bool:
    if isinstance(event, Deferred):
        return True
    callbacks = event.callbacks or ()
    return any(getattr(cb, "func", None) is not None and cb.func.__name__ == "_landed_now"
               for cb in callbacks)


class _Recording(dict):
    """A monitor's probe table, logging every record written to it."""

    def __init__(self, region, writes):
        super().__init__()
        self.region = region
        self.writes = writes

    def __setitem__(self, name, probe):
        self.writes.append((probe.probe_time, self.region, name, tuple(probe)))
        super().__setitem__(name, probe)


def _observe(monkeypatch, monitor_cls):
    """Patch in ``monitor_cls`` and the recorders; returns (reads, writes,
    pops)."""
    reads, writes, pops = [], [], []
    monkeypatch.setattr(balancer_module, "AvailabilityMonitor", monitor_cls)
    init = AvailabilityMonitor.__init__

    def recording_init(monitor, *args, **kwargs):
        init(monitor, *args, **kwargs)
        monitor._balancer_probes = _Recording(monitor.region, writes)

    monkeypatch.setattr(AvailabilityMonitor, "__init__", recording_init)
    probes = AvailabilityMonitor.balancer_probes

    def recorded(monitor):
        records = probes.fget(monitor)
        reads.append(
            (
                monitor.env.now,
                monitor.region,
                tuple(sorted(records.items())),
                tuple(sorted(monitor._forwarded_since_probe.items())),
            )
        )
        return records

    monkeypatch.setattr(AvailabilityMonitor, "balancer_probes", property(recorded))
    step = Environment.step

    def recorded_step(env):
        # The head of the heap is the entry ``step`` processes next; an
        # eager landing is told by its callbacks, which ``step`` clears.
        timeline = env._timeline
        if timeline and not _is_landing(timeline[0][3]):
            pops.append(timeline[0][:2])
        step(env)

    monkeypatch.setattr(Environment, "step", recorded_step)
    return reads, writes, pops


def _run_cell(name, scale=0.06, duration=20.0):
    faults, net = SCENARIOS[name]
    workload = build_arena_workload(scale=scale, seed=3)
    cluster = ClusterConfig(
        replicas_per_region={"us": 1, "eu": 1, "asia": 1},
        profile=TINY_TEST_PROFILE,
        **({"network": net} if net is not None else {}),
    )
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=cluster,
        duration_s=duration,
        seed=2,
        faults=faults,
    )
    return run_experiment(config, workload)


@pytest.fixture(scope="module", autouse=True)
def _reattach_fault():
    register_fault(ReattachPeer.kind, spec=ReattachPeer)(_reattach)
    yield
    unregister_fault(ReattachPeer.kind)


def _by_slot(writes):
    """Each (reader, peer) record's writes, in the order they happened."""
    slots = {}
    for write in writes:
        slots.setdefault(write[1:3], []).append(write)
    return slots


def _observed_run(name, monitor_cls):
    with pytest.MonkeyPatch.context() as patch:
        reads, writes, pops = _observe(patch, monitor_cls)
        result = _run_cell(name)
    return result, reads, _by_slot(writes), pops


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lazy_landings_match_the_eager_oracle(name):
    eager, eager_reads, eager_writes, eager_pops = _observed_run(name, EagerMonitor)
    lazy, lazy_reads, lazy_writes, lazy_pops = _observed_run(name, AvailabilityMonitor)
    assert eager.metrics.num_completed > 0
    assert lazy.metrics.to_dict() == eager.metrics.to_dict()
    assert lazy_writes == eager_writes
    assert len(lazy_reads) == len(eager_reads)
    assert lazy_reads == eager_reads
    assert lazy_pops == eager_pops
    # The lazy run schedules fewer events: most landings are never events.
    assert lazy.env._eid < eager.env._eid


def test_the_differential_cells_park_and_forward():
    """The cells exercise both halves of the lazy path: landings promoted
    because a balancer parked, and records read by forwarding decisions."""
    promoted = []
    promote = Environment.promote

    def counted(env, timer):
        promoted.append(timer)
        return promote(env, timer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Environment, "promote", counted)
        result = _run_cell("no-faults")
    assert promoted
    assert sum(b.remote_forwards for b in result.balancers) > 0


def _wakeups(monitor_cls):
    """Two balancers with no replicas, each the other's only peer: both
    park, and with no jitter and symmetric RTTs each one's probe of the
    other lands on the same float instant.  Returns the wake-up order."""
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=0.0, seed=0)
    woken = []
    original = monitor_cls.wait_for_change

    def logged(monitor):
        event = original(monitor)
        event.callbacks.append(lambda _: woken.append((env.now, monitor.region)))
        return event

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(balancer_module, "AvailabilityMonitor", monitor_cls)
        patch.setattr(monitor_cls, "wait_for_change", logged)
        us = balancer_module.SkyWalkerBalancer(env, "sw@us", "us", network)
        eu = balancer_module.SkyWalkerBalancer(env, "sw@eu", "eu", network)
        us.add_peer(eu)
        eu.add_peer(us)
        us.start()
        eu.start()

        def arrivals():
            # Park after both cycles sent their probes, eu first.
            yield env.timeout(0.01)
            for balancer in (eu, us):
                request = Request(
                    session_id="s",
                    region=balancer.region,
                    prompt_tokens=(1, 2, 3),
                    output_len=4,
                )
                balancer.inbox.put_nowait(request)

        env.process(arrivals())
        env.run(until=1.0)
    return woken


def test_simultaneous_landings_wake_parked_balancers_in_oracle_order():
    topology = default_topology()
    assert topology.one_way("us", "eu") == topology.one_way("eu", "us")
    lazy, eager = _wakeups(AvailabilityMonitor), _wakeups(EagerMonitor)
    assert lazy == eager
    # The first wake-ups are the two landings on one instant.
    assert lazy[0][0] == lazy[1][0]
    assert {lazy[0][1], lazy[1][1]} == {"us", "eu"}


# ----------------------------------------------------------------------
# a quiet cell churned through every input a landing reads
# ----------------------------------------------------------------------
REGIONS = ("us", "eu", "asia")


def _churned_cell(seed: int, steps: int = 300):
    """Three balancers with one replica each and little traffic, so landed
    probes stay unapplied for long stretches, while a seeded process
    changes every input a landing reads at irregular instants: inbox puts,
    replica and balancer crashes and recoveries, partitions, downed edges,
    peers removed and re-added, and a replica shared with a second
    balancer (a failover takeover)."""
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=0.05, seed=seed)
    balancers, replicas = {}, {}
    for region in REGIONS:
        balancer = balancer_module.SkyWalkerBalancer(env, f"sw@{region}", region, network)
        replica = ReplicaServer(env, f"{region}/replica-0", region, TINY_TEST_PROFILE)
        balancer.add_replica(replica)
        balancers[region], replicas[region] = balancer, replica
    for balancer in balancers.values():
        for peer in balancers.values():
            balancer.add_peer(peer)
        balancer.start()
    rng = random.Random(seed)
    blocked, down, lent = set(), set(), set()

    def churn():
        for step in range(steps):
            yield env.timeout(rng.choice([0.0, rng.uniform(0.0, 0.06)]))
            action = rng.randrange(10)
            region = rng.choice(REGIONS)
            balancer, replica = balancers[region], replicas[region]
            if action <= 2:
                request = Request(
                    prompt_tokens=tuple(rng.randrange(50) for _ in range(rng.randrange(8, 64))),
                    output_len=rng.randrange(2, 40),
                    session_id=f"session-{rng.randrange(5)}",
                    region=region,
                    request_id=step,
                )
                request.sent_time = env.now
                if action == 0:
                    balancer.submit(request)
                else:
                    balancer.inbox.put_nowait(request)
            elif action == 3:
                replica.recover() if not replica.healthy else replica.fail()
            elif action == 4:
                balancer.recover() if not balancer.healthy else balancer.fail()
            elif action in (5, 6):
                other = rng.choice([r for r in REGIONS if r != region])
                pair = tuple(sorted((region, other)))
                table, toggle = (
                    (blocked, network.set_link_blocked)
                    if action == 5
                    else (down, network.set_edge_down)
                )
                toggle(*pair, pair not in table)
                table.symmetric_difference_update({pair})
            elif action == 7:
                peer = balancers[rng.choice([r for r in REGIONS if r != region])]
                if peer in balancer.peers():
                    balancer.remove_peer(peer.name)
                    if rng.random() < 0.5:
                        balancer.add_peer(peer)
                else:
                    balancer.add_peer(peer)
            elif action == 8:
                # Lend this region's replica to another balancer, or take
                # it back.
                other = balancers[rng.choice([r for r in REGIONS if r != region])]
                if region in lent:
                    for holder in balancers.values():
                        if holder is not balancer:
                            holder.remove_replica(replica.name)
                    lent.discard(region)
                else:
                    other.add_replica(replica)
                    lent.add(region)
            else:
                yield env.timeout(rng.uniform(0.1, 0.4))

    env.process(churn())
    env.run(until=15.0)
    return env, balancers, replicas


def _churn_state(balancers, replicas):
    return (
        [(b.local_dispatches, b.remote_forwards, b.received_requests, b.queue_size)
         for b in balancers.values()],
        [(r.stats.steps, r.stats.busy_time, r.num_outstanding) for r in replicas.values()],
    )


@pytest.mark.parametrize("seed", range(6))
def test_churned_cell_matches_the_eager_oracle(seed):
    runs = []
    for monitor_cls in (EagerMonitor, AvailabilityMonitor):
        with pytest.MonkeyPatch.context() as patch:
            reads, writes, pops = _observe(patch, monitor_cls)
            env, balancers, replicas = _churned_cell(seed)
        runs.append((reads, writes, pops, _churn_state(balancers, replicas), env))
    (eager_reads, eager_writes, eager_pops, eager_state, _), lazy = runs[0], runs[1]
    lazy_reads, lazy_writes, lazy_pops, lazy_state, lazy_env = lazy
    assert len(lazy_writes) == len(eager_writes) > 300
    assert _by_slot(lazy_writes) == _by_slot(eager_writes)
    assert lazy_reads == eager_reads
    assert lazy_pops == eager_pops
    assert lazy_state == eager_state
    assert lazy_env._eid < runs[0][4]._eid


def _landing_on_the_get_resume(monitor_cls):
    """A request reaches eu's idle serving loop on the exact float instant
    us's probe of eu lands: the put sorts before the landing and the
    serving loop's resume after it, so the landing must read eu's queue
    before the resume appends the request."""
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=0.0, seed=0)
    with pytest.MonkeyPatch.context() as patch:
        _, writes, _ = _observe(patch, monitor_cls)
        us = balancer_module.SkyWalkerBalancer(env, "sw@us", "us", network)
        eu = balancer_module.SkyWalkerBalancer(env, "sw@eu", "eu", network)
        us.add_peer(eu)
        # No local replicas: the cycle starts are the float chain 0, 0.1, ...
        start = 0.0
        for _ in range(3):
            start += 0.1
        land = start + (
            network.sample_one_way("us", "eu") + network.sample_one_way("eu", "us")
        )
        request = Request(prompt_tokens=(1, 2, 3), output_len=2, region="eu", request_id=0)
        env.timeout_at(land).callbacks.append(lambda _: eu.inbox.put_nowait(request))
        us.start()
        eu.start()
        env.run(until=land + 0.05)
    return [write for write in writes if write[0] == land]


def test_a_landing_reads_the_queue_before_a_same_instant_resume():
    lazy = _landing_on_the_get_resume(AvailabilityMonitor)
    assert lazy == _landing_on_the_get_resume(EagerMonitor)
    assert [write[3][3] for write in lazy] == [0]  # the queue was still empty


class _Peer:
    name, region, healthy, num_available_replicas, queue_size = "lb-eu", "eu", True, 1, 0


def _overtaken_landing(monitor_cls):
    """A probe promoted while a waiter is parked crosses a latency spike,
    and the lazy probes sent after the spike healed land before it.  The
    record must be overwritten in landing order.  Returns the probe times
    written, in the order they were written."""
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=0.0, seed=0)
    monitor = monitor_cls(env, network, "us", probe_interval_s=0.1)
    monitor.add_remote_balancer(_Peer())
    writes = []
    monitor._balancer_probes = _Recording("us", writes)
    network.add_link_extra_latency("us", "eu", 0.45)

    def waiter():
        yield env.timeout(0.05)  # after cycle 0 sent its probe
        yield monitor.wait_for_change()  # promotes it; cycle 1 wakes us

    def heal():
        yield env.timeout(0.06)
        network.remove_link_extra_latency("us", "eu", 0.45)

    env.process(waiter())
    env.process(heal())
    monitor.start()
    env.run(until=1.5)
    return [write[0] for write in writes]


def test_a_promoted_landing_overtaken_by_lazy_ones_lands_in_order():
    lazy = _overtaken_landing(AvailabilityMonitor)
    assert lazy == _overtaken_landing(EagerMonitor)
    assert lazy[1:] == sorted(lazy[1:])  # after the seed, in landing order
    assert len(lazy) > 10
