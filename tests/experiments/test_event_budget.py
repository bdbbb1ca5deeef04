"""The exact event budgets of a tiny 3-region skywalker cell and of the
Fig. 8 wildchat x skywalker cell.

Events scheduled are deterministic where host timings are not, so the
budget is pinned exactly, split by origin: the qualified name of the
generator whose resume scheduled the event, or ``(callback)`` for events
scheduled from timer callbacks (peer-probe round trips, message
deliveries, replica steps).  Work added to any layer then fails this test
as a named diff instead of surfacing as a timing flake.  When a change
moves the budget on purpose, update the numbers here and say why in
CHANGES.md.
"""

from collections import Counter

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_arena_workload,
    build_wildchat_workload,
    run_experiment,
)
from repro.experiments.macro import default_macro_cluster
from repro.replica import TINY_TEST_PROFILE, ContinuousBatcher
from repro.sim import Environment

EXPECTED_BUDGET = {
    "(callback)": 2460,
    "AvailabilityMonitor._run": 909,
    "ClosedLoopClient._run": 62,
    "SkyWalkerBalancer._serve": 41,
}


def test_tiny_skywalker_cell_event_budget(monkeypatch):
    origins = Counter()
    schedule = Environment.schedule

    def counted_schedule(env, event, *args, **kwargs):
        process = env.active_process
        origin = "(callback)" if process is None else process._generator.__qualname__
        origins[origin] += 1
        return schedule(env, event, *args, **kwargs)

    monkeypatch.setattr(Environment, "schedule", counted_schedule)
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
    result = run_experiment(config, workload)
    assert result.metrics.num_completed == 28
    assert dict(origins) == EXPECTED_BUDGET
    assert result.env._eid == sum(EXPECTED_BUDGET.values()) == 3472


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
    assert (result.env._eid, completed) == (21_001, 227)
    assert result.env._eid / completed < 100
    assert catch_ups["advance_decode"] == 265
