"""Resilience metrics: what happened to service quality under faults.

When an experiment runs with a fault schedule, the plain throughput/latency
aggregates of :class:`~repro.metrics.collector.RunMetrics` hide the story
that matters: how much goodput survived *during* the outage, how long
recovery took, how many requests were stranded or lost.  This module
computes that story from the raw ingredients -- the request tracker's
completion columns, the injector's outage windows and a handful of
counters -- into a
:class:`ResilienceMetrics` record attached to ``RunMetrics.resilience``.

Phases are defined by the overall outage span (first injection to last
recovery), which is known only once the run ends, so completions are
classified then, by their **send time** column: a request
sent during the outage that only completes after recovery still tells an
"outage experience" story, which is exactly what the per-phase p90 TTFT
captures (the §4.2 experiment's before/during/after comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.client import RequestTracker
from .summary import percentile

__all__ = ["ResilienceMetrics", "collect_resilience_metrics"]


@dataclass
class ResilienceMetrics:
    """Fault-run outcome of one experiment.

    ``None`` values mean "not applicable" (no outage window, or an empty
    phase) rather than zero, so report code can distinguish "perfect
    recovery" from "nothing ever failed".
    """

    #: Fault events injected (including recovery-type events).
    num_fault_events: int
    #: Balancer failovers handled (controller failovers when a controller
    #: ran, injected balancer failures otherwise).
    failover_count: int
    #: ``(start, end)`` of each outage, clipped to the run duration.
    outage_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Requests pulled out of dead balancers and re-routed.
    stranded_requests: int = 0
    #: Requests still queued/parked at balancers when the run ended.
    parked_requests: int = 0
    #: Requests aborted by crashes (reported to clients as failures).
    failed_requests: int = 0
    #: Messages dropped by network partitions.
    dropped_messages: int = 0
    #: Mean / max seconds from injection to recovery over closed windows.
    mean_time_to_recovery_s: Optional[float] = None
    max_time_to_recovery_s: Optional[float] = None
    #: Served tokens per second of requests *finishing* inside the outage
    #: span -- the "goodput during outage" of the §4.2 experiment.
    goodput_during_outage_tokens_per_s: Optional[float] = None
    #: Completed requests by send-time phase.
    completed_before: int = 0
    completed_during: int = 0
    completed_after: int = 0
    #: Client-perceived p90 TTFT by send-time phase.
    ttft_p90_before_s: Optional[float] = None
    ttft_p90_during_s: Optional[float] = None
    ttft_p90_after_s: Optional[float] = None
    #: ``(start, end)`` of each *gray* (degraded, slow-but-alive) window,
    #: clipped to the run.  Kept separate from outage windows: a degraded
    #: system still serves, so these windows report goodput and tail
    #: latency rather than downtime.
    degraded_windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Completed requests sent while some degrade was active.
    completed_degraded: int = 0
    #: Served tokens per second of requests finishing inside degraded
    #: windows (degraded-mode goodput).
    goodput_while_degraded_tokens_per_s: Optional[float] = None
    #: Client-perceived p90 TTFT of requests sent while degraded.
    ttft_p90_degraded_s: Optional[float] = None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "num_fault_events": self.num_fault_events,
            "failover_count": self.failover_count,
            "outage_windows": [list(window) for window in self.outage_windows],
            "stranded_requests": self.stranded_requests,
            "parked_requests": self.parked_requests,
            "failed_requests": self.failed_requests,
            "dropped_messages": self.dropped_messages,
            "mean_time_to_recovery_s": self.mean_time_to_recovery_s,
            "max_time_to_recovery_s": self.max_time_to_recovery_s,
            "goodput_during_outage_tokens_per_s": self.goodput_during_outage_tokens_per_s,
            "completed_before": self.completed_before,
            "completed_during": self.completed_during,
            "completed_after": self.completed_after,
            "ttft_p90_before_s": self.ttft_p90_before_s,
            "ttft_p90_during_s": self.ttft_p90_during_s,
            "ttft_p90_after_s": self.ttft_p90_after_s,
            "degraded_windows": [list(window) for window in self.degraded_windows],
            "completed_degraded": self.completed_degraded,
            "goodput_while_degraded_tokens_per_s": self.goodput_while_degraded_tokens_per_s,
            "ttft_p90_degraded_s": self.ttft_p90_degraded_s,
        }

    def format_row(self) -> str:
        """One human-readable resilience row (used by the bench harness)."""

        def opt(value: Optional[float], fmt: str = "6.3f") -> str:
            return "     -" if value is None else format(value, fmt)

        row = (
            f"failovers={self.failover_count}  "
            f"ttr={opt(self.mean_time_to_recovery_s, '5.1f')}s  "
            f"outage goodput={opt(self.goodput_during_outage_tokens_per_s, '8.1f')} tok/s  "
            f"ttft p90 before/during/after="
            f"{opt(self.ttft_p90_before_s)}/{opt(self.ttft_p90_during_s)}/"
            f"{opt(self.ttft_p90_after_s)}s  "
            f"stranded={self.stranded_requests} parked={self.parked_requests} "
            f"failed={self.failed_requests}"
        )
        if self.degraded_windows:
            row += (
                f"  degraded: ttft p90={opt(self.ttft_p90_degraded_s)}s "
                f"goodput={opt(self.goodput_while_degraded_tokens_per_s, '8.1f')} tok/s "
                f"({len(self.degraded_windows)} windows)"
            )
        return row


def _p90(values: Sequence[float]) -> Optional[float]:
    return percentile(list(values), 90.0) if values else None


def _clip_windows(
    windows: Sequence[Tuple[float, float]], duration_s: float
) -> List[Tuple[float, float]]:
    return sorted(
        (max(0.0, start), min(duration_s, end))
        for start, end in windows
        if min(duration_s, end) > max(0.0, start)
    )


def collect_resilience_metrics(
    *,
    tracker: RequestTracker,
    duration_s: float,
    outage_windows: Sequence[Tuple[float, float]],
    num_fault_events: int,
    failover_count: int,
    degraded_windows: Sequence[Tuple[float, float]] = (),
    stranded_requests: int = 0,
    parked_requests: int = 0,
    failed_requests: int = 0,
    dropped_messages: int = 0,
) -> ResilienceMetrics:
    """Aggregate one faulted run into a :class:`ResilienceMetrics` record.

    ``outage_windows`` are ``(start, end)`` pairs in simulation seconds
    (already resolved by the injector; unrecovered outages end at
    ``duration_s``).  Windows are clipped to ``[0, duration_s]`` and the
    before/during/after phases span from the earliest start to the latest
    end.  ``degraded_windows`` are gray (slow-but-alive) periods: requests
    *sent* inside any of them feed the degraded-mode goodput and p90 TTFT,
    independently of the hard-outage phase classification.  Completions
    are read from ``tracker``'s columns; one with no send time counts as
    sent before the outage.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    windows = _clip_windows(outage_windows, duration_s)
    gray = _clip_windows(degraded_windows, duration_s)

    metrics = ResilienceMetrics(
        num_fault_events=num_fault_events,
        failover_count=failover_count,
        outage_windows=list(windows),
        degraded_windows=list(gray),
        stranded_requests=stranded_requests,
        parked_requests=parked_requests,
        failed_requests=failed_requests,
        dropped_messages=dropped_messages,
    )

    recovery_times = [end - start for start, end in windows] + [
        end - start for start, end in gray
    ]
    if recovery_times:
        metrics.mean_time_to_recovery_s = sum(recovery_times) / len(recovery_times)
        metrics.max_time_to_recovery_s = max(recovery_times)

    def completions():
        return zip(tracker.sent_time, tracker.finish_time, tracker.ttft, tracker.total_tokens)

    if gray:
        degraded_ttfts: List[float] = []
        degraded_tokens = 0
        degraded_time = sum(end - start for start, end in gray)
        for sent, finish, ttft, tokens in completions():
            if any(start <= sent <= end for start, end in gray):
                metrics.completed_degraded += 1
                if ttft == ttft:
                    degraded_ttfts.append(ttft)
            if any(start <= finish <= end for start, end in gray):
                degraded_tokens += tokens
        if degraded_time > 0:
            metrics.goodput_while_degraded_tokens_per_s = (
                degraded_tokens / degraded_time
            )
        metrics.ttft_p90_degraded_s = _p90(degraded_ttfts)

    if not windows:
        metrics.completed_before = tracker.num_completed
        return metrics

    span_start = windows[0][0]
    span_end = max(end for _, end in windows)

    before_ttfts: List[float] = []
    during_ttfts: List[float] = []
    after_ttfts: List[float] = []
    outage_tokens = 0
    for sent, finish, ttft, tokens in completions():
        # A NaN send time fails both comparisons and lands in "before".
        if sent > span_end:
            metrics.completed_after += 1
            bucket = after_ttfts
        elif sent >= span_start:
            metrics.completed_during += 1
            bucket = during_ttfts
        else:
            metrics.completed_before += 1
            bucket = before_ttfts
        if ttft == ttft:
            bucket.append(ttft)
        if span_start <= finish <= span_end:
            outage_tokens += tokens

    if span_end > span_start:
        metrics.goodput_during_outage_tokens_per_s = outage_tokens / (span_end - span_start)
    metrics.ttft_p90_before_s = _p90(before_ttfts)
    metrics.ttft_p90_during_s = _p90(during_ttfts)
    metrics.ttft_p90_after_s = _p90(after_ttfts)
    return metrics
