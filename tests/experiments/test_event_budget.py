"""The exact event budgets of a tiny 3-region skywalker cell, of the same
cluster on a contended backbone, and of the Fig. 8 wildchat x skywalker
cell.

Events scheduled are deterministic where host timings are not, so the
budget is pinned exactly, split by origin (``repro.sim.count_origins``):
the qualified name of the generator whose resume scheduled the event, or
of the callback being run -- a tick's member, such as
``AvailabilityMonitor._cycle`` -- or ``(outside a step)`` for what the
stack schedules before the run.  A peer-probe landing is an event only
when a parked balancer could hear it: the ones promoted when a balancer
parks count under ``SkyWalkerBalancer._serve``, those sent while one is
parked under ``AvailabilityMonitor._send_balancer_probes``, and the rest
schedule nothing.  Work added to any layer then fails this test as a named
diff instead of surfacing as a timing flake.  When a change moves the
budget on purpose, update the numbers here and say why in CHANGES.md.
"""

from collections import Counter

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_arena_workload,
    build_tot_workload,
    build_wildchat_workload,
    run_experiment,
)
from repro.experiments.macro import default_macro_cluster
from repro.net import NetConfig
from repro.replica import TINY_TEST_PROFILE, ContinuousBatcher
from repro.sim import count_origins

#: The monitors' cycles are ticks: a cycle start and its peer-probe send
#: share one entry with the other monitors' on the same instant, so
#: ``_cycle`` schedules only the local round trip and
#: ``_local_probe_landed`` the next cycle's tick when no other monitor's
#: cycle already made it.
EXPECTED_BUDGET = {
    "(outside a step)": 10,
    "AvailabilityMonitor._cycle": 303,
    "AvailabilityMonitor._local_probe_landed": 103,
    "AvailabilityMonitor._balancer_probe_landed": 6,
    "AvailabilityMonitor._send_balancer_probes": 6,
    "ClosedLoopClient._run": 62,
    "ConditionEvent._check": 28,
    "ReplicaServer._on_arrival": 13,
    "ReplicaServer._on_decoded": 1616,
    "ReplicaServer._on_prefilled": 45,
    "SkyWalkerBalancer._serve": 45,
    "_put_into_inbox": 64,
}

#: A contended message is five timers (start, three hops, and the transmit
#: on the one finite-bandwidth backbone edge), scheduled by the delivering
#: callback and then by ``Network._transit_started``, ``_forward`` and
#: ``_transmitted``.  Most of the cell is prefill steps of the long
#: tree-of-thoughts prompts, each scheduled by the step before it.
EXPECTED_CONTENDED_BUDGET = {
    "(outside a step)": 8,
    "AvailabilityMonitor._cycle": 303,
    "AvailabilityMonitor._local_probe_landed": 100,
    "ClosedLoopClient._run": 148,
    "ConditionEvent._check": 28,
    "Network._forward": 41,
    "Network._transit_started": 18,
    "Network._transmitted": 24,
    "ReplicaServer._on_arrival": 23,
    "ReplicaServer._on_decoded": 361,
    "ReplicaServer._on_prefilled": 7525,
    "SkyWalkerBalancer._serve": 128,
    "_put_into_inbox": 149,
}


def test_tiny_skywalker_cell_event_budget():
    workload = build_arena_workload(scale=0.03)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=TINY_TEST_PROFILE,
        ),
        duration_s=10.0,
        seed=1,
    )
    with count_origins() as origins:
        result = run_experiment(config, workload)
    assert result.metrics.num_completed == 28
    assert dict(origins) == EXPECTED_BUDGET
    assert result.env._eid == sum(EXPECTED_BUDGET.values()) == 2301


def test_contended_tiny_cell_event_budget():
    """The tiny tree-of-thoughts cell on a 2 MB/s backbone: no transit is
    a process any more."""
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker"),
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=TINY_TEST_PROFILE,
            network=NetConfig(
                topology="backbone",
                wan_bandwidth_bytes_per_s=2e6,
                kv_bytes_per_token=4096.0,
            ),
        ),
        duration_s=10.0,
        seed=1,
    )
    with count_origins() as origins:
        result = run_experiment(config, build_tot_workload(scale=0.06, seed=2))
    assert result.metrics.num_completed == 90
    assert result.frontend.network.wire_bytes_sent > 0
    assert "Network._transit" not in origins
    assert dict(origins) == EXPECTED_CONTENDED_BUDGET
    assert result.env._eid == sum(EXPECTED_CONTENDED_BUDGET.values()) == 8856


def test_fig08_cell_stays_under_100_events_per_completion(monkeypatch):
    """Also pins how often a decode run is caught up: availability probes
    read replica load without applying steps, so steps are applied only at
    a run's wake, at a cut, or when the batcher or stats are read."""
    catch_ups = Counter()
    advance_decode = ContinuousBatcher.advance_decode

    def counted_advance_decode(batcher, steps):
        catch_ups["advance_decode"] += 1
        return advance_decode(batcher, steps)

    monkeypatch.setattr(ContinuousBatcher, "advance_decode", counted_advance_decode)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker"),
        cluster=default_macro_cluster(0.5),
        duration_s=120.0,
        seed=0,
    )
    result = run_experiment(config, build_wildchat_workload(scale=0.5, seed=0))
    completed = result.metrics.num_completed
    assert (result.env._eid, completed) == (7_252, 227)
    assert result.env._eid / completed < 100
    assert catch_ups["advance_decode"] == 265
