"""Outside-in outcome recording and correctness checks.

A :class:`Recorder` watches one simulation from outside the program: it
wraps the frontend's ``dispatch`` (every request a client issues passes
through it) and listens to every replica's completions.  From those two
boundaries alone it checks that

* each issued request ends at most once,
* every completed request generated exactly ``output_len`` tokens, and
* the seven per-request timestamps are monotone,

and it keeps the per-request samples the ``sim_*`` metrics and the traced
run's queueing metrics are computed from.  It holds issued requests only
while they are in flight, so a streamed workload stays O(in-flight).
"""

from __future__ import annotations

from typing import Dict, List

#: A request whose first token reaches the client within this many
#: simulated seconds of being sent meets the SLO.
SLO_TTFT_S = 1.0

#: Stamps in lifecycle order; each must be set and no earlier than the last.
#: One exception: ``schedule_time`` records the *last* admission into the
#: batch, so a request preempted after its first token is re-admitted after
#: ``first_token_time``.  It is checked to lie between ``replica_arrival_time``
#: and ``finish_time`` instead (see :func:`timestamps_in_order`).
TIMESTAMPS = (
    "sent_time",
    "lb_arrival_time",
    "lb_dispatch_time",
    "replica_arrival_time",
    "schedule_time",
    "first_token_time",
    "finish_time",
)


def timestamps_in_order(stamps) -> bool:
    if None in stamps:
        return False
    sent, lb_arrival, lb_dispatch, replica_arrival, schedule, first, finish = stamps
    return (
        sent <= lb_arrival <= lb_dispatch <= replica_arrival <= first <= finish
        and replica_arrival <= schedule <= finish
    )

#: Per-request samples kept for percentiles, by name.
SAMPLES = ("ttft", "tpot", "lb_wait", "queue_wait", "ingress", "response")

#: Per-simulation counters, summed when simulations are pooled.
COUNTERS = (
    "issued",
    "completed",
    "violations",
    "slo_hits",
    "slo_misses",
    "served_tokens",
    "prompt_tokens",
    "cached_tokens",
    "forwarded",
    "cross_region",
    #: Completed requests preempted after their first token and re-admitted.
    "readmitted",
)


class Recorder:
    """Outcome ledger of one simulation (see the module docstring)."""

    def __init__(self, env, frontend, replicas) -> None:
        self.env = env
        self.in_flight: Dict[int, object] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLES}
        self.problems: List[str] = []
        dispatch = frontend.dispatch

        def checked_dispatch(request) -> None:
            self.in_flight[request.request_id] = request
            self.counts["issued"] += 1
            dispatch(request)

        # An instance attribute shadows the method for every caller.
        frontend.dispatch = checked_dispatch
        for replica in replicas:
            replica.add_completion_listener(self.complete)

    def _violation(self, message: str) -> None:
        self.counts["violations"] += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def complete(self, request) -> None:
        counts = self.counts
        if self.in_flight.pop(request.request_id, None) is None:
            self._violation(f"request {request.request_id} ended twice or was never issued")
            return
        counts["completed"] += 1
        counts["readmitted"] += request.schedule_time > request.first_token_time
        if request.generated_tokens != request.output_len:
            self._violation(
                f"request {request.request_id} generated {request.generated_tokens} "
                f"of {request.output_len} tokens"
            )
        stamps = [getattr(request, name) for name in TIMESTAMPS]
        if not timestamps_in_order(stamps):
            self._violation(f"request {request.request_id} timestamps out of order: {stamps}")
            return
        sent, lb_arrival, lb_dispatch, replica_arrival, schedule, first, finish = stamps
        samples = self.samples
        ttft = first + request.response_network_delay - sent
        samples["ttft"].append(ttft)
        if request.generated_tokens > 1:
            samples["tpot"].append((finish - first) / (request.generated_tokens - 1))
        samples["lb_wait"].append(lb_dispatch - lb_arrival)
        samples["queue_wait"].append(schedule - replica_arrival)
        samples["ingress"].append(lb_arrival - sent)
        samples["response"].append(request.response_network_delay)
        counts["slo_hits" if ttft <= SLO_TTFT_S else "slo_misses"] += 1
        prompt = request.prompt_len
        counts["served_tokens"] += prompt + request.generated_tokens
        counts["prompt_tokens"] += prompt
        counts["cached_tokens"] += request.cached_prefix_tokens
        counts["forwarded"] += request.forward_hops > 0
        counts["cross_region"] += request.serving_region != request.region

    def close(self, stack, *, lossless: bool) -> Dict[str, object]:
        """Classify what is still in flight and return the outcome.

        Requests still in flight count against the SLO once they have
        waited longer than it without a first token (or got one late).
        In a lossless workload anything still in flight is a failure.
        """
        now = self.env.now
        counts = dict(self.counts)
        for request in self.in_flight.values():
            first = request.first_token_time
            if first is None:
                if now - request.sent_time > SLO_TTFT_S:
                    counts["slo_misses"] += 1
            elif first + request.response_network_delay - request.sent_time <= SLO_TTFT_S:
                counts["slo_hits"] += 1
            else:
                counts["slo_misses"] += 1
        network = stack.network
        issued_by_clients = sum(client.issued_requests for client in stack.clients)
        if issued_by_clients != counts["issued"]:
            self._violation(
                f"clients issued {issued_by_clients} requests, frontend saw {counts['issued']}"
            )
            counts["violations"] = self.counts["violations"]
        failed = stack.tracker.num_failed + network.dropped_messages
        if lossless:
            failed += len(self.in_flight)
        counts["slo_misses"] += stack.tracker.num_failed
        return {
            "counts": counts,
            "samples": self.samples,
            "failed": failed,
            "outstanding": len(self.in_flight),
            "sim_seconds": now,
            "problems": list(self.problems),
        }
