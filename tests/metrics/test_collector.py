"""Unit tests for end-of-run metric aggregation."""

import pytest

from repro.cluster import Deployment, ReplicaSpec, RequestTracker
from repro.metrics import collect_run_metrics
from repro.replica import TINY_TEST_PROFILE

from ..conftest import make_request


@pytest.fixture
def deployment(env):
    return Deployment(
        env,
        [ReplicaSpec(region="us", count=1, profile=TINY_TEST_PROFILE),
         ReplicaSpec(region="eu", count=1, profile=TINY_TEST_PROFILE)],
    )


def _finished_request(region="us", serving_region="us", replica="us/replica-0",
                      prompt_len=100, output_len=10, sent=0.0, first=1.0, done=2.0,
                      hops=0):
    request = make_request(prompt_len=prompt_len, output_len=output_len, region=region)
    request.sent_time = sent
    request.lb_arrival_time = sent + 0.01
    request.schedule_time = sent + 0.5
    request.first_token_time = first
    request.finish_time = done
    request.generated_tokens = output_len
    request.serving_region = serving_region
    request.replica_name = replica
    request.forward_hops = hops
    request.status = "finished"
    return request


def _tracker(env, completed):
    tracker = RequestTracker(env)
    for request in completed:
        tracker.complete(request)
    return tracker


def test_throughput_counts_prompt_and_generated_tokens(env, deployment):
    completed = [
        _finished_request(prompt_len=100, output_len=20),
        _finished_request(prompt_len=50, output_len=30),
    ]
    metrics = collect_run_metrics(
        system="test", workload="unit", duration_s=10.0,
        tracker=_tracker(env, completed), issued=2, deployment=deployment,
    )
    assert metrics.throughput_tokens_per_s == pytest.approx((100 + 20 + 50 + 30) / 10.0)
    assert metrics.output_tokens_per_s == pytest.approx(5.0)
    assert metrics.requests_per_s == pytest.approx(0.2)
    assert metrics.num_completed == 2
    assert metrics.num_issued == 2


def test_latency_summaries_reflect_timestamps(env, deployment):
    completed = [
        _finished_request(sent=0.0, first=0.4, done=2.0),
        _finished_request(sent=0.0, first=0.8, done=4.0),
    ]
    metrics = collect_run_metrics(
        system="test", workload="unit", duration_s=10.0,
        tracker=_tracker(env, completed), issued=2, deployment=deployment,
    )
    assert metrics.ttft.mean == pytest.approx(0.6)
    assert metrics.e2e_latency.mean == pytest.approx(3.0)
    assert metrics.queueing_delay.count == 2


def test_cross_region_and_forwarded_fractions(env, deployment):
    completed = [
        _finished_request(region="us", serving_region="us"),
        _finished_request(region="eu", serving_region="us", hops=1),
        _finished_request(region="asia", serving_region="asia"),
        _finished_request(region="asia", serving_region="us", hops=1),
    ]
    metrics = collect_run_metrics(
        system="test", workload="unit", duration_s=1.0,
        tracker=_tracker(env, completed), issued=4, deployment=deployment,
    )
    assert metrics.cross_region_fraction == pytest.approx(0.5)
    assert metrics.forwarded_fraction == pytest.approx(0.5)


def test_replica_load_imbalance_ratio(env, deployment):
    completed = (
        [_finished_request(replica="us/replica-0") for _ in range(9)]
        + [_finished_request(replica="eu/replica-0") for _ in range(3)]
    )
    metrics = collect_run_metrics(
        system="test", workload="unit", duration_s=1.0,
        tracker=_tracker(env, completed), issued=12, deployment=deployment,
    )
    assert metrics.replica_load_imbalance == pytest.approx(3.0)
    assert metrics.per_replica_completed == {"us/replica-0": 9, "eu/replica-0": 3}


def test_empty_run_produces_zeroes(env, deployment):
    metrics = collect_run_metrics(
        system="test", workload="unit", duration_s=5.0,
        tracker=_tracker(env, []), issued=0, deployment=deployment,
    )
    assert metrics.num_completed == 0
    assert metrics.throughput_tokens_per_s == 0.0
    assert metrics.cross_region_fraction == 0.0
    assert metrics.replica_load_imbalance == 1.0
    assert metrics.ttft.count == 0


def test_invalid_duration_rejected(env, deployment):
    with pytest.raises(ValueError):
        collect_run_metrics(
            system="test", workload="unit", duration_s=0.0,
            tracker=_tracker(env, []), issued=0, deployment=deployment,
        )


def test_to_dict_and_format_row(env, deployment):
    metrics = collect_run_metrics(
        system="skywalker", workload="unit", duration_s=1.0,
        tracker=_tracker(env, [_finished_request()]), issued=1, deployment=deployment,
    )
    data = metrics.to_dict()
    assert data["system"] == "skywalker"
    assert "ttft" in data and "p90" in data["ttft"]
    row = metrics.format_row()
    assert "skywalker" in row and "tok/s" in row


def test_format_row_prints_a_dash_for_empty_latency_summaries(env, deployment):
    # A completion that recorded no timestamps is a NaN in every latency
    # column: counted, but in no summary.
    metrics = collect_run_metrics(
        system="skywalker", workload="unit", duration_s=1.0,
        tracker=_tracker(env, [make_request()]), issued=1, deployment=deployment,
    )
    assert metrics.num_completed == 1 and metrics.ttft.count == 0
    assert "ttft p50=      - p90=      -  e2e p50=      -" in metrics.format_row()
