"""The request object that flows through every layer of the system.

A :class:`Request` is created by a workload/client, travels through a load
balancer (possibly two, with SkyWalker's two-layer routing), is admitted
into a replica's continuous batch, and finally completes.  Timestamps for
every hop are recorded on the request itself so the metrics layer can
compute TTFT, end-to-end latency, queueing delay and cache hit rates without
any global bookkeeping.

All times are simulation seconds; all lengths are in tokens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["Request", "RequestStatus", "TokenSeq"]

#: Synthetic token sequences are plain tuples of ints.  There is no real
#: tokenizer in the simulator; prefix sharing is defined directly on these
#: integer sequences, which is exactly the property the balancer exploits.
TokenSeq = Tuple[int, ...]

_request_counter = itertools.count()


class RequestStatus:
    """Lifecycle states of a request (plain constants, not an Enum, to keep
    comparisons cheap inside the simulation hot loop)."""

    CREATED = "created"
    QUEUED_AT_LB = "queued_at_lb"
    FORWARDED = "forwarded"          # sent to a remote load balancer
    PENDING_AT_REPLICA = "pending_at_replica"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(eq=False)
class Request:
    """A single LLM inference request.

    Requests are mutable entities that flow through the system, so they
    compare (and hash) by identity rather than by field values.

    Parameters
    ----------
    prompt_tokens:
        The full prompt, including any shared prefix (system prompt, chat
        history, tree-of-thoughts context).
    output_len:
        Number of tokens the request will generate.  In the real system this
        is unknown in advance; the simulator samples it when the request is
        created but **never** exposes it to the load balancer -- balancers
        may only look at ``prompt_tokens`` and observable replica state,
        mirroring the paper's "load unpredictability" constraint.
    user_id / session_id:
        Identity keys used by consistent-hashing policies.
    region:
        Region name of the originating client.
    """

    prompt_tokens: TokenSeq
    output_len: int
    user_id: str = "user-0"
    session_id: str = "session-0"
    region: str = "us"
    arrival_time: float = 0.0
    request_id: int = field(default_factory=lambda: next(_request_counter))
    program_id: Optional[str] = None

    # ------------------------------------------------------------------
    # Mutable routing / execution state, filled in as the request flows
    # through the system.
    # ------------------------------------------------------------------
    status: str = RequestStatus.CREATED
    #: Region of the load balancer that first received the request.
    ingress_region: Optional[str] = None
    #: Region of the load balancer that made the final placement decision.
    serving_region: Optional[str] = None
    #: Name of the replica that executed the request.
    replica_name: Optional[str] = None
    #: Number of cross-LB forwards (0 = served locally).
    forward_hops: int = 0

    # Timestamps (simulation seconds).
    sent_time: Optional[float] = None
    lb_arrival_time: Optional[float] = None
    lb_dispatch_time: Optional[float] = None
    replica_arrival_time: Optional[float] = None
    #: Last admission into the continuous batch: a request preempted after
    #: its first token is re-stamped when it is re-admitted.
    schedule_time: Optional[float] = None
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None

    # Execution accounting, filled in by the replica.
    cached_prefix_tokens: int = 0
    prefilled_tokens: int = 0
    generated_tokens: int = 0

    #: One-way network latency from the serving region back to the client's
    #: region.  The forward path is simulated with real event delays; the
    #: response path is accounted for analytically via this field, which the
    #: dispatching load balancer fills in.
    response_network_delay: float = 0.0

    # ------------------------------------------------------------------
    @property
    def prompt_len(self) -> int:
        """Length of the prompt in tokens."""
        return len(self.prompt_tokens)

    @property
    def total_tokens(self) -> int:
        """Prompt plus generated tokens processed so far."""
        return self.prompt_len + self.generated_tokens

    @property
    def ttft(self) -> Optional[float]:
        """Time-to-first-token as observed by the client (includes the
        network latency of the response path back to the client's region)."""
        if self.first_token_time is None or self.sent_time is None:
            return None
        return self.first_token_time + self.response_network_delay - self.sent_time

    @property
    def e2e_latency(self) -> Optional[float]:
        """End-to-end latency from send to the client receiving the final token."""
        if self.finish_time is None or self.sent_time is None:
            return None
        return self.finish_time + self.response_network_delay - self.sent_time

    @property
    def queueing_delay(self) -> Optional[float]:
        """Delay between arriving at the first LB and the *last* admission
        into the continuous batch (:attr:`schedule_time`).

        For a request preempted and re-admitted after its first token, this
        includes the preemption, so ``RunMetrics.queueing_delay`` does too.
        """
        if self.schedule_time is None or self.lb_arrival_time is None:
            return None
        return self.schedule_time - self.lb_arrival_time

    @property
    def finished(self) -> bool:
        return self.status == RequestStatus.FINISHED

    def clone_for_retry(self) -> "Request":
        """Create a fresh copy with execution state cleared (failure recovery)."""
        return Request(
            prompt_tokens=self.prompt_tokens,
            output_len=self.output_len,
            user_id=self.user_id,
            session_id=self.session_id,
            region=self.region,
            arrival_time=self.arrival_time,
            program_id=self.program_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Request {self.request_id} user={self.user_id} region={self.region} "
            f"prompt={self.prompt_len} out={self.output_len} status={self.status}>"
        )
