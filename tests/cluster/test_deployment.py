"""Unit tests for multi-region deployments."""

import pytest

from repro.cluster import Deployment, G6_XLARGE, ReplicaSpec
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment


@pytest.fixture
def deployment(env):
    specs = [
        ReplicaSpec(region="us", count=3, profile=TINY_TEST_PROFILE),
        ReplicaSpec(region="eu", count=2, profile=TINY_TEST_PROFILE),
        ReplicaSpec(region="asia", count=1, profile=TINY_TEST_PROFILE),
    ]
    return Deployment(env, specs)


def test_replica_counts_per_region(deployment):
    assert deployment.num_replicas == 6
    assert len(deployment.replicas_in("us")) == 3
    assert len(deployment.replicas_in("eu")) == 2
    assert len(deployment.replicas_in("asia")) == 1
    assert deployment.replicas_in("unknown") == []


def test_replica_names_are_unique_and_region_scoped(deployment):
    names = [replica.name for replica in deployment.replicas]
    assert len(names) == len(set(names))
    for replica in deployment.replicas_in("eu"):
        assert replica.name.startswith("eu/")
        assert replica.region == "eu"


def test_unknown_region_in_spec_is_rejected(env):
    with pytest.raises(KeyError):
        Deployment(env, [ReplicaSpec(region="mars", count=1, profile=TINY_TEST_PROFILE)])


def test_hourly_cost_scales_with_fleet_size(env, deployment):
    single = Deployment(env, [ReplicaSpec(region="us", count=1, profile=TINY_TEST_PROFILE)])
    assert deployment.hourly_cost() == pytest.approx(6 * single.hourly_cost())
    assert deployment.hourly_cost("on_demand") == pytest.approx(6 * G6_XLARGE.on_demand_hourly)


def test_aggregate_cache_hit_rate_is_zero_before_any_traffic(deployment):
    assert deployment.aggregate_cache_hit_rate() == 0.0
