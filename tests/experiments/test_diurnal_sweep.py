"""Tests for the Fig. 10 sweep harness (scaled far down for CI speed)."""

import pytest

from repro.experiments import run_diurnal_sweep
from repro.experiments.diurnal_sweep import fleet_runs, replicas_meeting_slo, slo_cost_reduction


@pytest.fixture(scope="module")
def sweep():
    return run_diurnal_sweep(replica_counts=(3, 6), scale=0.2, duration_s=50.0, seed=5)


def test_sweep_covers_both_systems_and_all_counts(sweep):
    for system in ("skywalker", "region-local"):
        runs = fleet_runs(sweep, system)
        assert list(runs) == [3, 6]
        for count in (3, 6):
            assert runs[count].num_completed > 0
            assert runs[count].system == system


def test_throughput_series_structure(sweep):
    # One row per fleet size, both systems in every row.
    assert len(sweep.workloads()) == 2
    for workload in sweep.workloads():
        assert sweep.systems(workload) == ["skywalker", "region-local"]
    sky = fleet_runs(sweep, "skywalker")
    assert set(sky) == {3, 6}
    assert all(metrics.throughput_tokens_per_s > 0 for metrics in sky.values())


def test_more_replicas_give_more_throughput(sweep):
    local = fleet_runs(sweep, "region-local")
    sky = fleet_runs(sweep, "skywalker")
    assert local[6].throughput_tokens_per_s > local[3].throughput_tokens_per_s
    assert sky[6].throughput_tokens_per_s > sky[3].throughput_tokens_per_s


def test_per_region_tail_latency_is_recorded(sweep):
    for system in ("skywalker", "region-local"):
        for metrics in fleet_runs(sweep, system).values():
            assert "us_ttft_p90" in metrics.extra
            assert metrics.extra["us_ttft_p90"] > 0


def test_region_local_never_offloads_but_skywalker_may(sweep):
    for metrics in fleet_runs(sweep, "region-local").values():
        assert metrics.forwarded_fraction == 0.0
    assert all(m.forwarded_fraction >= 0.0 for m in fleet_runs(sweep, "skywalker").values())


def test_slo_helpers_are_consistent(sweep):
    # A very loose SLO is met by the smallest fleet of both systems; an
    # impossible SLO is met by neither.
    loose_sky = replicas_meeting_slo(sweep, "skywalker", 1e6)
    loose_local = replicas_meeting_slo(sweep, "region-local", 1e6)
    assert loose_sky == loose_local == 3
    assert replicas_meeting_slo(sweep, "skywalker", 1e-6) is None
    assert slo_cost_reduction(sweep, 1e6) == pytest.approx(0.0)


def test_uneven_replica_counts_are_rejected():
    with pytest.raises(ValueError):
        run_diurnal_sweep(replica_counts=(4,), scale=0.05, duration_s=10.0)
