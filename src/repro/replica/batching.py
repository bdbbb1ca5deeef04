"""Continuous batching scheduler state for one replica.

This module contains the *policy* half of the replica (pure Python, no
simulation events) so that admission, decode accounting and completion can
be unit-tested deterministically.  The simulation-process half lives in
:mod:`repro.replica.server`.

Terminology follows the paper:

* **pending request** -- a request the replica has received but has not yet
  admitted into the continuous batch (blocked on KV memory or batch size).
  The *existence* of pending requests is the signal SkyWalker's SP-P
  selective pushing checks.
* **outstanding requests** -- pending plus running requests, the quantity
  SP-O style balancers bound with a fixed threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..mem import MemoryConfig
from ..workloads.request import Request, RequestStatus
from .memory import AdmissionGrant, KVMemoryManager
from .model_profile import ModelProfile

__all__ = ["RunningSequence", "StepPlan", "ContinuousBatcher"]


@dataclass
class RunningSequence:
    """State of one request inside the continuous batch."""

    request: Request
    cached_tokens: int
    new_prompt_tokens: int
    generated: int = 0
    #: The memory grant backing this sequence; lets the per-token decode
    #: loop update output accounting without a request-id dict lookup.
    grant: Optional[AdmissionGrant] = None

    @property
    def remaining(self) -> int:
        return self.request.output_len - self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len


@dataclass
class StepPlan:
    """What the replica will execute next and how long it will take."""

    kind: str                       # "prefill" | "decode" | "idle"
    duration: float = 0.0
    admitted: List[RunningSequence] = field(default_factory=list)


class ContinuousBatcher:
    """Admission + decode bookkeeping for a single replica."""

    def __init__(
        self,
        profile: ModelProfile,
        *,
        memory: MemoryConfig = MemoryConfig(),
    ) -> None:
        self.profile = profile
        self.memory = KVMemoryManager(profile, memory)
        #: Compute-rate multiplier for gray failures (1.0 = nominal).  A
        #: degraded replica still answers probes and accepts work; only its
        #: compute time stretches by 1/scale.  Promotion stalls are transfer
        #: time, not GPU compute, so they are left unscaled.
        self.performance_scale: float = 1.0
        self.waiting: Deque[Request] = deque()
        self.running: List[RunningSequence] = []
        self._by_id: Dict[int, RunningSequence] = {}
        # Monotonic counters for metrics.
        self.total_admitted = 0
        self.total_finished = 0
        self.total_prompt_tokens = 0
        self.total_cached_tokens = 0
        self.total_generated_tokens = 0
        self.total_preemptions = 0
        self.total_preempted_tokens = 0
        #: Tokens served out of offload tiers (skip prefill, stall instead)
        #: and the summed promotion stalls -- zero on the legacy path.
        self.total_promoted_tokens = 0
        self.total_promotion_stall_s = 0.0
        #: Requests whose first admission has already been counted in the
        #: prompt/cached token statistics (re-admissions after preemption
        #: must not inflate the cache hit rate).
        self._counted_requests: set = set()

    # ------------------------------------------------------------------
    # observable load signals (what probes read)
    # ------------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        """Requests received but not yet in the continuous batch."""
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def num_outstanding(self) -> int:
        return self.num_pending + self.num_running

    @property
    def memory_utilization(self) -> float:
        return self.memory.utilization

    @property
    def cache_hit_rate(self) -> float:
        """Token-level prefix cache hit rate over all admitted requests."""
        if self.total_prompt_tokens == 0:
            return 0.0
        return self.total_cached_tokens / self.total_prompt_tokens

    # ------------------------------------------------------------------
    def enqueue(self, request: Request, now: float) -> None:
        """Accept a request from the network; it becomes *pending*."""
        request.status = RequestStatus.PENDING_AT_REPLICA
        request.replica_arrival_time = now
        self.waiting.append(request)

    def admit(self, now: float) -> List[RunningSequence]:
        """Admit as many pending requests as memory and batch size allow.

        Admission is FCFS (head-of-line blocking included) which matches how
        SGLang/vLLM schedule their waiting queues and is what makes blind
        pushing hurt: a large stuck request at the head keeps later, smaller
        requests pending even if memory frees up elsewhere.
        """
        admitted: List[RunningSequence] = []
        while self.waiting and len(self.running) < self.profile.max_batch_size:
            request = self.waiting[0]
            grant = self.memory.admit(request.request_id, request.prompt_tokens, now)
            if grant is None:
                break
            self.waiting.popleft()
            seq = RunningSequence(
                request=request,
                cached_tokens=grant.cached_tokens,
                new_prompt_tokens=grant.new_prompt_tokens,
                grant=grant,
            )
            request.status = RequestStatus.RUNNING
            request.schedule_time = now
            request.cached_prefix_tokens = grant.cached_tokens
            request.prefilled_tokens = grant.new_prompt_tokens
            self.running.append(seq)
            self._by_id[request.request_id] = seq
            admitted.append(seq)
            if request.request_id not in self._counted_requests:
                self._counted_requests.add(request.request_id)
                self.total_admitted += 1
                self.total_prompt_tokens += request.prompt_len
                self.total_cached_tokens += grant.cached_tokens
                self.total_promoted_tokens += grant.promoted_tokens
            self.total_promotion_stall_s += grant.promotion_stall_s
        return admitted

    # ------------------------------------------------------------------
    def preempt_if_needed(self, now: float) -> List[RunningSequence]:
        """Preempt recently admitted sequences when KV memory runs out.

        Real engines (vLLM, SGLang) admit optimistically -- output lengths are
        unknown -- and when the KV pool fills mid-decode they preempt the
        newest sequences and recompute them later.  The preempted request goes
        back to the head of the waiting queue and loses its generated tokens,
        which is what makes sustained overload genuinely expensive.
        """
        preempted: List[RunningSequence] = []
        while len(self.running) > 1 and self.memory.free_tokens < len(self.running):
            victim = self.running[-1]
            self.running.pop()
            del self._by_id[victim.request.request_id]
            self.memory.release(victim.request.request_id, now)
            self.total_preemptions += 1
            self.total_preempted_tokens += victim.generated
            victim.request.generated_tokens = 0
            victim.request.status = RequestStatus.PENDING_AT_REPLICA
            self.waiting.appendleft(victim.request)
            preempted.append(victim)
        return preempted

    def plan_step(self, now: float) -> StepPlan:
        """Decide what to execute next (prefill new admissions, else decode)."""
        self.preempt_if_needed(now)
        admitted = self.admit(now)
        if admitted:
            # Tier-promoted tokens skip prefill compute like cached ones;
            # what they cost instead is the promotion stall (transfer-engine
            # queueing + copy time), serialised into this prefill step.
            new_tokens = sum(
                seq.new_prompt_tokens - seq.grant.promoted_tokens for seq in admitted
            )
            stall = sum(seq.grant.promotion_stall_s for seq in admitted)
            compute = self.profile.prefill_time(new_tokens)
            if self.performance_scale != 1.0:
                compute /= self.performance_scale
            return StepPlan(
                kind="prefill",
                duration=compute + stall,
                admitted=admitted,
            )
        if self.running:
            return StepPlan(kind="decode", duration=self.decode_durations(1)[0])
        return StepPlan(kind="idle")

    def decode_run_length(self) -> int:
        """Decode steps until the batch next changes, at least one.

        Within a *decode run* every step only adds one token per sequence,
        so nothing a plan could observe changes until one of:

        * the sequence closest to its ``output_len`` finishes;
        * the output tokens exhaust ``free_tokens`` far enough that
          :meth:`preempt_if_needed` fires at the next plan (free memory
          shrinks by one token per running sequence per step);
        * a pending request could join a batch that is not full: every plan
          then retries :meth:`admit`, whose failed attempts still touch the
          radix cache's LRU clock, so the run is a single step.
        """
        running = self.running
        batch = len(running)
        if self.waiting and batch < self.profile.max_batch_size:
            return 1
        steps = min(seq.request.output_len - seq.generated for seq in running)
        if batch > 1:
            steps = min(steps, max(1, self.memory.free_tokens // batch))
        return steps

    def decode_durations(self, steps: int) -> List[float]:
        """Durations of the next ``steps`` decode steps of this batch."""
        batch = len(self.running)
        # All grants belong to running sequences (and vice versa), so the
        # memory manager's running total IS this batch's context size —
        # no per-sequence recount on the decode hot path.
        context = self.memory.context_tokens_total
        if batch <= 0:
            raise ValueError("decode step requires at least one sequence")
        # ModelProfile.decode_step_time inlined, with the same float
        # operations in the same order: its first two terms are the same
        # for every step of the run.
        profile = self.profile
        fixed = profile.decode_base_s + batch * profile.decode_per_seq_s
        per_kilotoken = profile.decode_per_kilotoken_s
        scale = self.performance_scale
        durations: List[float] = []
        for _ in range(steps):
            compute = fixed + (context / 1000.0) * per_kilotoken
            if scale != 1.0:
                compute /= scale
            durations.append(compute)
            context += batch
        return durations

    def complete_prefill(self, admitted: List[RunningSequence], now: float) -> List[Request]:
        """Record the first token of freshly prefilled sequences.

        Returns requests that finished immediately (``output_len == 1``).
        """
        finished: List[Request] = []
        for seq in admitted:
            seq.generated = 1
            self.memory.add_output_token(seq.request.request_id)
            seq.request.generated_tokens = 1
            if seq.request.first_token_time is None:
                seq.request.first_token_time = now
            self.total_generated_tokens += 1
            if seq.done:
                finished.append(self._finish(seq, now))
        return finished

    def complete_decode_step(self, now: float) -> List[Request]:
        """Every running sequence gains one token; return those that finished."""
        finished: List[Request] = []
        survivors: List[RunningSequence] = []
        running = self.running
        # Credit the whole step's output tokens up front; each sequence's
        # grant is bumped inside the loop, so by the time a finished
        # request's release() subtracts its grant the totals agree.
        self.memory.note_generated(len(running))
        self.total_generated_tokens += len(running)
        for seq in running:
            seq.generated += 1
            seq.grant.output_tokens += 1
            request = seq.request
            request.generated_tokens = seq.generated
            if request.first_token_time is None:
                request.first_token_time = now
            if seq.generated >= request.output_len:
                finished.append(self._finish(seq, now, unlink=False))
            else:
                survivors.append(seq)
        if finished:
            # One list rebuild instead of an O(batch) ``remove`` per
            # completion (order of the survivors is preserved).
            self.running = survivors
        return finished

    def advance_decode(self, steps: int) -> None:
        """Apply ``steps`` decode steps in which no sequence finishes.

        The bulk form of :meth:`complete_decode_step` for the inside of a
        decode run (see :meth:`decode_run_length`): each sequence's counters
        move once instead of once per step.
        """
        running = self.running
        tokens = steps * len(running)
        self.memory.note_generated(tokens)
        self.total_generated_tokens += tokens
        for seq in running:
            seq.generated += steps
            seq.grant.output_tokens += steps
            seq.request.generated_tokens = seq.generated

    def _finish(self, seq: RunningSequence, now: float, *, unlink: bool = True) -> Request:
        request = seq.request
        request.status = RequestStatus.FINISHED
        request.finish_time = now
        if unlink:
            self.running.remove(seq)
        del self._by_id[request.request_id]
        # Multi-turn conversations resend the whole history, so caching the
        # prompt (already in the tree) is what matters; we do not re-insert
        # output tokens because the synthetic workloads append fresh token
        # ids per turn for the assistant reply.
        self.memory.release(request.request_id, now)
        self._counted_requests.discard(request.request_id)
        self.total_finished += 1
        return request

    def abort_all(self, now: float) -> List[Request]:
        """Fail every pending and running request (replica crash)."""
        aborted: List[Request] = []
        for seq in list(self.running):
            request = seq.request
            request.status = RequestStatus.FAILED
            self.running.remove(seq)
            del self._by_id[request.request_id]
            self.memory.release(request.request_id, now)
            aborted.append(request)
        while self.waiting:
            request = self.waiting.popleft()
            request.status = RequestStatus.FAILED
            aborted.append(request)
        return aborted
