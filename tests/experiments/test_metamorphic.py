"""Metamorphic relations a run must satisfy bit for bit.

Each relation says how two runs of one cell must relate without knowing
either answer, so it checks the whole stack at once:

* **k sim-time slices == one run.**  Stopping the clock at arbitrary
  instants and resuming (what perfbench's sliced runs do) changes nothing:
  ``Environment.run`` settles the deferred probe landings at each stop, and
  those landings are exact however late they are applied.
* **One spec under two names == one run.**  A system's behaviour is a
  function of its spec, not of the registry name it was looked up by.

Both are checked on a default cell and on a cross-feature cell that
combines a contended ``backbone`` WAN, an ``lru-demote`` host tier, a
controller-run ``balancer-fail`` and a ``link-down`` in one run.
"""

import pytest

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_arena_workload,
    register_system,
    run_experiment,
)
from repro.experiments import runner
from repro.faults import BalancerFailure, FaultSchedule, LinkDown
from repro.mem import MemoryConfig
from repro.net import NetConfig
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment

pytestmark = pytest.mark.strict_invariants

DURATION_S = 20.0
SLICES = 7

CELLS = {
    "default": dict(cluster=ClusterConfig(
        replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
    )),
    "cross-feature": dict(
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=TINY_TEST_PROFILE,
            network=NetConfig(
                topology="backbone", wan_bandwidth_bytes_per_s=1e6, kv_bytes_per_token=64.0
            ),
            memory=MemoryConfig(page_size=16, host_capacity_tokens=4096, offload="lru-demote"),
        ),
        faults=FaultSchedule(controller_probe_interval_s=0.25)
        .add(6.0, BalancerFailure(region="eu", duration_s=4.0))
        .add(8.0, LinkDown(a="wan/north-america", b="wan/europe", duration_s=5.0)),
    ),
}


def _run(cell: str, kind: str = "skywalker"):
    workload = build_arena_workload(scale=0.03, seed=1)
    config = ExperimentConfig(
        system=REGISTRY.spec(kind, label="skywalker", hash_key=workload.hash_key),
        duration_s=DURATION_S,
        seed=3,
        **CELLS[cell],
    )
    return run_experiment(config, workload)


@pytest.fixture(scope="module", params=sorted(CELLS))
def reference(request):
    """One uninterrupted run of the cell, and its payload."""
    result = _run(request.param)
    return request.param, result, result.metrics.to_dict()


def test_cross_feature_cell_exercises_every_feature(reference):
    cell, result, payload = reference
    if cell == "default":
        assert "resilience" not in payload and "memory" not in payload
        return
    assert result.controller is not None and len(result.controller.failovers) == 1
    assert result.controller.failovers[0].recovered_at is not None
    assert payload["resilience"]["failover_count"] == 1
    assert payload["memory"]["demoted_tokens"] > 0
    assert payload["memory"]["promoted_tokens"] > 0
    assert payload["cross_region_fraction"] > 0
    network = result.deployment.network
    assert network.contention_enabled
    assert {"link-down", "link-up"} <= {change.reason for change in network.route_events}


class _SlicedEnvironment(Environment):
    """Runs ``run(until=T)`` as ``SLICES`` consecutive runs."""

    def run(self, until=None):
        if until is None or not isinstance(until, (int, float)):
            return super().run(until)
        start = self.now
        for k in range(1, SLICES):
            super().run(until=start + (until - start) * k / SLICES)
        return super().run(until=until)


def test_sliced_run_matches_one_run(reference, monkeypatch):
    cell, result, payload = reference
    monkeypatch.setattr(runner, "Environment", _SlicedEnvironment)
    sliced = _run(cell)
    assert isinstance(sliced.env, _SlicedEnvironment)
    assert sliced.env.events_processed == result.env.events_processed
    assert sliced.metrics.to_dict() == payload


def test_spec_under_a_second_name_matches(reference):
    cell, _, payload = reference
    entry = REGISTRY.get("skywalker")
    register_system("skywalker-twin", config=entry.spec_cls)(entry.factory)
    try:
        twin = _run(cell, kind="skywalker-twin")
    finally:
        REGISTRY.unregister("skywalker-twin")
    assert "skywalker-twin" not in REGISTRY
    assert twin.metrics.to_dict() == payload
