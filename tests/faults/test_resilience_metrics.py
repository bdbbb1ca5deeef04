"""Resilience aggregation against hand-computed fixtures."""

import json

import pytest

from repro.cluster import RequestTracker
from repro.metrics import ResilienceMetrics, collect_resilience_metrics
from repro.metrics.summary import percentile
from repro.sim import Environment

from ..conftest import make_request


def finished_request(sent, first_token, finish, *, prompt_len=10, generated=5, region="us"):
    request = make_request(prompt_len=prompt_len, output_len=generated, region=region)
    request.sent_time = sent
    request.first_token_time = first_token
    request.finish_time = finish
    request.generated_tokens = generated
    request.response_network_delay = 0.0
    return request


def tracked(*requests):
    """A tracker whose completion columns hold ``requests``, in order."""
    tracker = RequestTracker(Environment())
    for request in requests:
        tracker.complete(request)
    return tracker


def test_phases_goodput_and_recovery_hand_computed():
    # One outage window [10, 20] in a 40 s run.
    #   r1: sent 5,  ft 6,  finish 7   -> before, ttft 1.0
    #   r2: sent 12, ft 15, finish 18  -> during, ttft 3.0, finishes in-window
    #   r3: sent 25, ft 26, finish 27  -> after,  ttft 1.0
    r1 = finished_request(5.0, 6.0, 7.0)
    r2 = finished_request(12.0, 15.0, 18.0, prompt_len=20, generated=10)
    r3 = finished_request(25.0, 26.0, 27.0)
    metrics = collect_resilience_metrics(
        tracker=tracked(r1, r2, r3),
        duration_s=40.0,
        outage_windows=[(10.0, 20.0)],
        num_fault_events=1,
        failover_count=1,
        stranded_requests=2,
        parked_requests=3,
        failed_requests=4,
        dropped_messages=5,
    )
    assert metrics.completed_before == 1
    assert metrics.completed_during == 1
    assert metrics.completed_after == 1
    # Only r2 finishes inside [10, 20]: (20 prompt + 10 output) / 10 s span.
    assert metrics.goodput_during_outage_tokens_per_s == pytest.approx(3.0)
    assert metrics.mean_time_to_recovery_s == pytest.approx(10.0)
    assert metrics.max_time_to_recovery_s == pytest.approx(10.0)
    # Single-sample phases: the p90 is the sample itself.
    assert metrics.ttft_p90_before_s == pytest.approx(1.0)
    assert metrics.ttft_p90_during_s == pytest.approx(3.0)
    assert metrics.ttft_p90_after_s == pytest.approx(1.0)
    # Counters pass through verbatim.
    assert metrics.stranded_requests == 2
    assert metrics.parked_requests == 3
    assert metrics.failed_requests == 4
    assert metrics.dropped_messages == 5


def test_multiple_windows_span_and_ttr():
    # Two windows: [5, 8] and [20, 30] -> span [5, 30], TTRs 3 and 10.
    requests = [
        finished_request(2.0, 3.0, 4.0),    # before
        finished_request(10.0, 11.0, 12.0),  # between windows counts as during
        finished_request(35.0, 36.0, 37.0),  # after
    ]
    metrics = collect_resilience_metrics(
        tracker=tracked(*requests),
        duration_s=40.0,
        outage_windows=[(20.0, 30.0), (5.0, 8.0)],
        num_fault_events=2,
        failover_count=2,
    )
    assert metrics.outage_windows == [(5.0, 8.0), (20.0, 30.0)]
    assert metrics.mean_time_to_recovery_s == pytest.approx(6.5)
    assert metrics.max_time_to_recovery_s == pytest.approx(10.0)
    assert (metrics.completed_before, metrics.completed_during, metrics.completed_after) == (1, 1, 1)


def test_windows_are_clipped_to_the_run():
    metrics = collect_resilience_metrics(
        tracker=tracked(),
        duration_s=40.0,
        outage_windows=[(35.0, 120.0), (-3.0, 2.0), (50.0, 60.0)],
        num_fault_events=3,
        failover_count=0,
    )
    # (50, 60) lies wholly past the run and vanishes; the rest clip.
    assert metrics.outage_windows == [(0.0, 2.0), (35.0, 40.0)]


def test_no_windows_means_no_outage_phases():
    request = finished_request(5.0, 6.0, 7.0)
    metrics = collect_resilience_metrics(
        tracker=tracked(request),
        duration_s=40.0,
        outage_windows=[],
        num_fault_events=1,  # e.g. a latency spike that never "opened" an outage
        failover_count=0,
    )
    assert metrics.completed_before == 1
    assert metrics.completed_during == 0
    assert metrics.goodput_during_outage_tokens_per_s is None
    assert metrics.mean_time_to_recovery_s is None
    assert metrics.ttft_p90_during_s is None


def test_rejects_non_positive_duration():
    with pytest.raises(ValueError, match="duration_s"):
        collect_resilience_metrics(
            tracker=tracked(), duration_s=0.0, outage_windows=[], num_fault_events=0,
            failover_count=0,
        )


def test_to_dict_round_trips_through_json():
    metrics = collect_resilience_metrics(
        tracker=tracked(finished_request(12.0, 13.0, 14.0)),
        duration_s=40.0,
        outage_windows=[(10.0, 20.0)],
        num_fault_events=1,
        failover_count=1,
    )
    payload = json.loads(json.dumps(metrics.to_dict()))
    assert payload["failover_count"] == 1
    assert payload["outage_windows"] == [[10.0, 20.0]]
    assert payload["completed_during"] == 1
    assert isinstance(metrics.format_row(), str)
    # ResilienceMetrics is a plain dataclass: equal payloads compare equal,
    # which is what the serial-vs-parallel identity checks rely on.
    assert isinstance(metrics, ResilienceMetrics)

# ----------------------------------------------------------------------
# gray (degraded) windows
# ----------------------------------------------------------------------
def test_degraded_windows_hand_computed():
    # One gray window [10, 30] in a 40 s run, no hard outage.
    #   r1: sent 5,  ft 6,  finish 7   -> nominal
    #   r2: sent 12, ft 16, finish 25  -> degraded, ttft 4.0, finishes in-window
    #   r3: sent 28, ft 29, finish 35  -> degraded (sent in-window), ttft 1.0,
    #                                     but finishes after: no goodput tokens
    r1 = finished_request(5.0, 6.0, 7.0)
    r2 = finished_request(12.0, 16.0, 25.0, prompt_len=30, generated=10)
    r3 = finished_request(28.0, 29.0, 35.0)
    metrics = collect_resilience_metrics(
        tracker=tracked(r1, r2, r3),
        duration_s=40.0,
        outage_windows=[],
        degraded_windows=[(10.0, 30.0)],
        num_fault_events=1,
        failover_count=0,
    )
    # No hard outage: the legacy phases degenerate to "everything before"...
    assert metrics.outage_windows == []
    assert metrics.completed_before == 3
    assert metrics.goodput_during_outage_tokens_per_s is None
    # ...while the gray channel reports the degraded experience.
    assert metrics.degraded_windows == [(10.0, 30.0)]
    assert metrics.completed_degraded == 2
    # Only r2 finishes inside the window: (30 + 10) tokens / 20 s.
    assert metrics.goodput_while_degraded_tokens_per_s == pytest.approx(2.0)
    assert metrics.ttft_p90_degraded_s == pytest.approx(percentile([4.0, 1.0], 90.0))
    # Degrade windows count toward TTR (time until full service returns).
    assert metrics.mean_time_to_recovery_s == pytest.approx(20.0)
    assert "degraded:" in metrics.format_row()


def test_outage_and_degraded_windows_are_independent_channels():
    # Outage [5, 10], gray [15, 25]: one request in each.
    r_outage = finished_request(7.0, 8.0, 9.0)
    r_gray = finished_request(18.0, 19.0, 20.0)
    metrics = collect_resilience_metrics(
        tracker=tracked(r_outage, r_gray),
        duration_s=40.0,
        outage_windows=[(5.0, 10.0)],
        degraded_windows=[(15.0, 25.0)],
        num_fault_events=2,
        failover_count=0,
    )
    assert metrics.completed_during == 1   # send-time inside the outage span
    assert metrics.completed_degraded == 1
    # TTR averages the outage (5 s) and the gray repair (10 s).
    assert metrics.mean_time_to_recovery_s == pytest.approx(7.5)
    assert metrics.max_time_to_recovery_s == pytest.approx(10.0)


def test_degraded_windows_clip_and_empty_payload_is_stable():
    metrics = collect_resilience_metrics(
        tracker=tracked(),
        duration_s=40.0,
        outage_windows=[],
        degraded_windows=[(35.0, 90.0), (50.0, 60.0)],
        num_fault_events=1,
        failover_count=0,
    )
    assert metrics.degraded_windows == [(35.0, 40.0)]
    # A window with zero completions really did serve nothing: 0.0, not
    # None ("not applicable") -- the distinction the CI columns rely on.
    assert metrics.goodput_while_degraded_tokens_per_s == 0.0
    assert metrics.ttft_p90_degraded_s is None
    # The gray keys are always present in the payload (serial/parallel
    # comparisons hash the full dict), defaulting to empty/None/zero.
    payload = metrics.to_dict()
    assert payload["degraded_windows"] == [[35.0, 40.0]]
    assert payload["completed_degraded"] == 0
