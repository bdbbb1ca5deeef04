"""Unit tests for the provisioning cost model (Fig. 3b)."""

import pytest

from repro.analysis import CostModel
from repro.cluster import G6_XLARGE, P5_48XLARGE
from repro.workloads import RegionalTrace


@pytest.fixture
def skewed_trace():
    """Three regions with complementary peaks (the aggregation-friendly case)."""
    return RegionalTrace(
        hourly_counts={
            "us": [100, 100, 900, 900, 100, 100],
            "eu": [900, 100, 100, 100, 900, 100],
            "asia": [100, 900, 100, 100, 100, 900],
        }
    )


def test_replicas_for_rounds_up():
    model = CostModel(requests_per_replica_hour=100)
    assert model.replicas_for(1) == 1
    assert model.replicas_for(100) == 1
    assert model.replicas_for(101) == 2


def test_aggregated_provisioning_needs_fewer_replicas(skewed_trace):
    model = CostModel(requests_per_replica_hour=100)
    cost = model.evaluate(skewed_trace)
    assert cost.region_local_replicas == 27  # 9 per region
    assert cost.aggregated_replicas == 11    # global peak 1100
    assert cost.aggregated_replicas < cost.region_local_replicas


def test_cost_ordering_matches_figure_3b(skewed_trace):
    """Fig. 3b ordering: aggregated reserved < region-local reserved <
    on-demand autoscaling (which the paper reports at ~2.2x aggregated)."""
    model = CostModel(requests_per_replica_hour=100, instance=G6_XLARGE)
    cost = model.evaluate(skewed_trace)
    assert cost.aggregated_reserved < cost.region_local_reserved
    assert cost.on_demand_autoscaling > cost.aggregated_reserved
    assert cost.aggregation_savings_fraction > 0.3
    assert cost.on_demand_multiplier > 1.0


def test_uniform_trace_offers_no_aggregation_benefit():
    trace = RegionalTrace(hourly_counts={"us": [500] * 4, "eu": [500] * 4})
    model = CostModel(requests_per_replica_hour=100)
    cost = model.evaluate(trace)
    assert cost.aggregated_replicas == cost.region_local_replicas
    assert cost.aggregation_savings_fraction == pytest.approx(0.0)


def test_costs_scale_with_instance_price(skewed_trace):
    cheap = CostModel(requests_per_replica_hour=100, instance=G6_XLARGE).evaluate(skewed_trace)
    expensive = CostModel(requests_per_replica_hour=100, instance=P5_48XLARGE).evaluate(skewed_trace)
    assert expensive.aggregated_reserved > cheap.aggregated_reserved


def test_commitment_level_changes_reserved_cost(skewed_trace):
    three_year = CostModel(requests_per_replica_hour=100, commitment="reserved_3yr")
    on_premise = CostModel(requests_per_replica_hour=100, commitment="on_premise")
    assert on_premise.evaluate(skewed_trace).aggregated_reserved < three_year.evaluate(
        skewed_trace
    ).aggregated_reserved


def test_fleet_cost_and_equal_throughput_reduction():
    model = CostModel(requests_per_replica_hour=100, instance=G6_XLARGE)
    fleet_hourly = 12 * model.instance.hourly(model.commitment)
    assert fleet_hourly == pytest.approx(12 * G6_XLARGE.reserved_3yr_hourly)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        CostModel(requests_per_replica_hour=0)


def test_to_dict_exposes_all_fields(skewed_trace):
    cost = CostModel(requests_per_replica_hour=100).evaluate(skewed_trace)
    data = cost.to_dict()
    assert {"on_demand_autoscaling", "region_local_reserved", "aggregated_reserved"} <= set(data)
