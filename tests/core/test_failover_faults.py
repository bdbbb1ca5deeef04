"""The PR 2 failover-state fixes, exercised through injected fault schedules.

``recover()`` clearing the prefix tries and ``add_remote_balancer`` seeding
peer probes from live state were originally regression-tested with direct
method calls.  These tests drive the same code paths end to end: a
:class:`FaultSchedule` kills a balancer mid-run, the controller (or a
custom registered fault) does the rest, and the assertions read the
resulting state -- no ``fail()``/``recover()`` calls from test code.
"""

from dataclasses import dataclass

import pytest

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
    register_fault,
    unregister_fault,
)
from repro.replica import TINY_TEST_PROFILE

CLUSTER = ClusterConfig(
    replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
)

#: A token sequence no workload generates (far outside the vocab range).
SENTINEL_TOKENS = tuple(range(10_000_000, 10_000_024))


def run_skywalker(schedule, *, duration=30.0):
    workload = build_arena_workload(scale=0.03, seed=1)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=CLUSTER,
        duration_s=duration,
        seed=1,
        faults=schedule,
    )
    return run_experiment(config, workload)


def test_recovery_clears_tries_under_injected_balancer_failure():
    """A recovered balancer must not route on pre-failure affinity data.

    A custom fault plants a sentinel prompt into the eu balancer's tries
    just before the injected failure (and into us as a control).  After the
    controller-driven recovery, the sentinel must be gone from eu -- wiped
    by ``recover()`` -- while the untouched us balancer still has it.
    """

    @dataclass(frozen=True)
    class PlantSentinel(FaultSpec):
        kind: str = "plant-sentinel"
        region: str = "eu"

    @register_fault("plant-sentinel", spec=PlantSentinel)
    def _plant(spec, ctx, record):
        record.opens_window = False
        balancer = ctx.balancer_in(spec.region)
        balancer.replica_trie.insert(SENTINEL_TOKENS, "sentinel-replica")
        balancer.snapshot_trie.insert(SENTINEL_TOKENS, "sentinel-peer")

    try:
        schedule = (
            FaultSchedule(controller_probe_interval_s=0.25)
            .add(7.5, PlantSentinel(region="eu"))
            .add(7.5, PlantSentinel(region="us"))
            .add(8.0, BalancerFailure(region="eu", duration_s=3.0))
        )
        result = run_skywalker(schedule)
    finally:
        unregister_fault("plant-sentinel")

    controller = result.controller
    assert controller is not None and len(controller.failovers) == 1
    assert controller.failovers[0].recovered_at is not None

    eu = next(b for b in result.balancers if b.region == "eu")
    us = next(b for b in result.balancers if b.region == "us")
    assert eu.healthy
    # recover() wiped the failed balancer's tries: the sentinel is gone...
    assert eu.replica_trie.match_length(SENTINEL_TOKENS) == 0
    assert eu.snapshot_trie.match_length(SENTINEL_TOKENS) == 0
    # ...while the healthy balancer kept its copy (no eviction pressure:
    # the default trie capacity dwarfs this run's insertions).
    assert us.replica_trie.match_length(SENTINEL_TOKENS) == len(SENTINEL_TOKENS)
    assert us.snapshot_trie.match_length(SENTINEL_TOKENS) == len(SENTINEL_TOKENS)


def test_replicas_and_rings_transfer_through_injected_failover():
    """End-to-end §4.2: takeover, then replicas home again after recovery."""
    schedule = FaultSchedule.single(
        8.0,
        BalancerFailure(region="eu", duration_s=3.0),
        controller_probe_interval_s=0.25,
    )
    result = run_skywalker(schedule)
    record = result.controller.failovers[0]
    assert record.failed_balancer == "skywalker@eu"
    assert "eu/replica-0" in record.replica_names

    eu = next(b for b in result.balancers if b.region == "eu")
    takeover = next(b for b in result.balancers if b.name == record.takeover_balancer)
    assert [r.name for r in eu.replicas()] == ["eu/replica-0"]
    assert all(r.name != "eu/replica-0" for r in takeover.replicas())
    # The hash ring tracks membership (it survives recovery by design).
    assert "eu/replica-0" in eu.replica_ring.targets


def test_attaching_a_dead_peer_seeds_an_unhealthy_probe():
    """``add_remote_balancer`` must seed from the peer's *live* state.

    Mid-failover re-wiring can attach a peer that is already dead; the
    optimistic-seed bug would have made it a forward target until the
    first real probe.  Here a custom fault re-attaches the dead eu
    balancer to us while the outage is still open (``use_controller=False``
    keeps eu down) and captures what the monitor believed at that instant.
    """
    observed = {}

    @dataclass(frozen=True)
    class ReattachPeer(FaultSpec):
        kind: str = "reattach-peer"
        at_region: str = "us"
        peer_region: str = "eu"

    @register_fault("reattach-peer", spec=ReattachPeer)
    def _reattach(spec, ctx, record):
        record.opens_window = False
        balancer = ctx.balancer_in(spec.at_region)
        peer = ctx.balancer_in(spec.peer_region)
        balancer.remove_peer(peer.name)
        balancer.add_peer(peer)
        probe = balancer.monitor.balancer_probes[peer.name]
        observed["probe_healthy"] = probe.healthy
        observed["available"] = [p.name for p in balancer.monitor.available_remote_balancers()]
        observed["peer_healthy"] = peer.healthy

    try:
        schedule = (
            FaultSchedule(use_controller=False)
            .add(8.0, BalancerFailure(region="eu"))  # stays down: no duration
            .add(9.0, ReattachPeer(at_region="us", peer_region="eu"))
        )
        result = run_skywalker(schedule, duration=15.0)
    finally:
        unregister_fault("reattach-peer")

    assert observed["peer_healthy"] is False  # eu really was down at attach time
    assert observed["probe_healthy"] is False  # seeded from live (dead) state
    assert "skywalker@eu" not in observed["available"]
    assert result.metrics.resilience.num_fault_events == 2
