"""Unit tests for the Request entity and its derived metrics."""

import pytest

from repro.workloads import Request, RequestStatus

from ..conftest import make_request


def test_request_ids_are_unique():
    ids = {Request(prompt_tokens=(1,), output_len=1).request_id for _ in range(100)}
    assert len(ids) == 100


def test_prompt_len_and_total_tokens():
    request = make_request(prompt_len=30, output_len=5)
    assert request.prompt_len == 30
    request.generated_tokens = 5
    assert request.total_tokens == 35


def test_ttft_includes_response_network_delay():
    request = make_request()
    request.sent_time = 10.0
    request.first_token_time = 10.5
    request.response_network_delay = 0.08
    assert request.ttft == pytest.approx(0.58)


def test_e2e_latency_includes_response_network_delay():
    request = make_request()
    request.sent_time = 1.0
    request.finish_time = 6.0
    request.response_network_delay = 0.1
    assert request.e2e_latency == 5.1


def test_latencies_are_none_until_timestamps_exist():
    request = Request(prompt_tokens=(1, 2), output_len=1)
    assert request.ttft is None
    assert request.e2e_latency is None
    assert request.queueing_delay is None


def test_queueing_delay_measured_from_lb_arrival_to_schedule():
    request = make_request()
    request.lb_arrival_time = 2.0
    request.schedule_time = 3.5
    assert request.queueing_delay == 1.5


def test_cache_hit_ratio():
    request = make_request(prompt_len=100)
    request.cached_prefix_tokens = 25
    assert request.cached_prefix_tokens / request.prompt_len == 0.25
    empty = Request(prompt_tokens=(), output_len=1)
    assert (empty.prompt_len, empty.cached_prefix_tokens) == (0, 0)


def test_finished_flag_follows_status():
    request = make_request()
    assert not request.finished
    request.status = RequestStatus.FINISHED
    assert request.finished


def test_clone_for_retry_resets_execution_state():
    request = make_request(prompt_len=10, output_len=3, user_id="alice", region="eu")
    request.generated_tokens = 3
    request.replica_name = "eu/replica-0"
    clone = request.clone_for_retry()
    assert clone.request_id != request.request_id
    assert clone.prompt_tokens == request.prompt_tokens
    assert clone.user_id == "alice"
    assert clone.region == "eu"
    assert clone.generated_tokens == 0
    assert clone.replica_name is None
    assert clone.status == RequestStatus.CREATED


def test_requests_hash_by_identity():
    a = make_request()
    b = make_request()
    assert a != b
    assert len({a, b}) == 2
