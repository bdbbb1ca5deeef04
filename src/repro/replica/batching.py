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

Decode bookkeeping runs on a *step clock*.  In a continuous batch every
running sequence gains one token per decode step (iteration-level
scheduling, Orca OSDI'22), so the only per-sequence decode event is a
finish.  :class:`ContinuousBatcher` counts applied decode steps in one
integer ``_clock``; a decoding sequence stores ``offset`` and has generated
``_clock + offset`` tokens.  A min-heap of ``(finish clock, admission
number, sequence)`` holds when each sequence reaches its ``output_len``:
the next run length is its top, and a step pops only the sequences that
finish on it, tied finishers in admission order (which is ``running``
order).  Advancing ``k`` steps is O(1); a step costs O(log n) per
sequence that finishes.

The per-sequence counters -- :attr:`RunningSequence.generated`,
``request.generated_tokens`` and the grant's ``output_tokens`` -- are
written only where they are read: when a sequence finishes, is preempted
or aborted, and on :meth:`ContinuousBatcher.write_counters` (which
:attr:`repro.replica.ReplicaServer.batcher` calls).  The memory manager's
output-token total moves with every step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Deque, List, Optional, Tuple

from ..mem import MemoryConfig
from ..workloads.request import Request, RequestStatus
from .memory import AdmissionGrant, KVMemoryManager
from .model_profile import ModelProfile

__all__ = ["RunningSequence", "StepPlan", "ContinuousBatcher"]


@dataclass(eq=False)
class RunningSequence:
    """State of one request inside the continuous batch."""

    request: Request
    cached_tokens: int
    new_prompt_tokens: int
    #: Output tokens so far.  While the sequence decodes this is written
    #: only when it leaves the batch and on a counter write-out; the live
    #: count is the batcher's clock plus :attr:`offset`.
    generated: int = 0
    #: The memory grant backing this sequence; lets the batcher write the
    #: sequence's output tokens without a request-id dict lookup.
    grant: Optional[AdmissionGrant] = None
    #: The batcher's admission number: ``running`` is in admission order.
    admission: int = 0
    #: ``generated`` minus the batcher's clock from the prefill token on;
    #: ``None`` before the prefill and once the sequence has left the batch.
    offset: Optional[int] = None


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
        #: Decode steps applied so far (the step clock).
        self._clock = 0
        #: Min-heap of ``(finish clock, admission number, sequence)`` for
        #: every decoding sequence; entries of preempted or aborted
        #: sequences (``offset is None``) are dropped when they surface.
        self._finishes: List[Tuple[int, int, RunningSequence]] = []
        self._admissions = 0
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
            self._admissions += 1
            seq = RunningSequence(
                request=request,
                cached_tokens=grant.cached_tokens,
                new_prompt_tokens=grant.new_prompt_tokens,
                grant=grant,
                admission=self._admissions,
            )
            request.status = RequestStatus.RUNNING
            request.schedule_time = now
            request.cached_prefix_tokens = grant.cached_tokens
            request.prefilled_tokens = grant.new_prompt_tokens
            self.running.append(seq)
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
            victim = self.running.pop()
            self._leave(victim)
            self.memory.release(victim.request.request_id, now)
            self.total_preemptions += 1
            self.total_preempted_tokens += victim.generated
            victim.request.generated_tokens = 0
            victim.request.status = RequestStatus.PENDING_AT_REPLICA
            self.waiting.appendleft(victim.request)
            preempted.append(victim)
        if preempted and len(self._finishes) > 2 * len(self.running):
            # A victim's heap entry stays behind.  Re-admitted victims that
            # are preempted again before any decode step never let those
            # entries surface, so drop them here once they outnumber the
            # batch (the entries are totally ordered: pops stay the same).
            self._finishes = [e for e in self._finishes if e[2].offset is not None]
            heapify(self._finishes)
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
            duration = self.profile.decode_step_time(
                len(self.running), self.memory.context_tokens_total
            )
            if self.performance_scale != 1.0:
                duration /= self.performance_scale
            return StepPlan(kind="decode", duration=duration)
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
        batch = len(self.running)
        if self.waiting and batch < self.profile.max_batch_size:
            return 1
        steps = self._next_finish() - self._clock
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
        clock = self._clock
        for seq in admitted:
            seq.generated = 1
            self.memory.add_output_token(seq.request.request_id)
            request = seq.request
            request.generated_tokens = 1
            if request.first_token_time is None:
                request.first_token_time = now
            self.total_generated_tokens += 1
            if request.output_len <= 1:
                finished.append(self._finish(seq, now))
            else:
                seq.offset = 1 - clock
                heappush(
                    self._finishes,
                    (clock + request.output_len - 1, seq.admission, seq),
                )
        return finished

    def complete_decode_step(self, now: float) -> List[Request]:
        """Every running sequence gains one token; return those that finished."""
        self._clock = clock = self._clock + 1
        batch = len(self.running)
        self.memory.note_generated(batch)
        self.total_generated_tokens += batch
        finished: List[Request] = []
        finishes = self._finishes
        # Tied finishers pop in admission order, which is ``running`` order.
        while finishes:
            finish, _, seq = finishes[0]
            if seq.offset is not None and finish != clock:
                break
            heappop(finishes)
            if seq.offset is not None:
                finished.append(self._finish(seq, now))
        return finished

    def advance_decode(self, steps: int) -> None:
        """Apply ``steps`` decode steps in which no sequence finishes.

        The bulk form of :meth:`complete_decode_step` for the inside of a
        decode run (see :meth:`decode_run_length`): the clock and the
        token totals move, and no sequence is touched.
        """
        tokens = steps * len(self.running)
        self.memory.note_generated(tokens)
        self.total_generated_tokens += tokens
        self._clock += steps

    def write_counters(self) -> None:
        """Write every running sequence's token counters from the clock, so
        ``generated``, ``request.generated_tokens`` and the grants'
        ``output_tokens`` (which ``KVMemoryManager.check_invariants``
        sums) are current."""
        for seq in self.running:
            self._write(seq)

    def _next_finish(self) -> int:
        """The clock at which the next decoding sequence finishes."""
        finishes = self._finishes
        while finishes[0][2].offset is None:
            heappop(finishes)
        return finishes[0][0]

    def _write(self, seq: RunningSequence) -> None:
        if seq.offset is not None:
            generated = self._clock + seq.offset
            seq.generated = generated
            seq.request.generated_tokens = generated
            seq.grant.output_tokens = generated

    def _leave(self, seq: RunningSequence) -> None:
        """Write ``seq``'s counters and take it off the clock (its heap
        entry, if any, is dropped when it surfaces)."""
        self._write(seq)
        seq.offset = None

    def _finish(self, seq: RunningSequence, now: float) -> Request:
        request = seq.request
        request.status = RequestStatus.FINISHED
        request.finish_time = now
        self._leave(seq)
        self.running.remove(seq)
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
        running, self.running = self.running, []
        self._finishes.clear()
        for seq in running:
            request = seq.request
            request.status = RequestStatus.FAILED
            self._leave(seq)
            self.memory.release(request.request_id, now)
            aborted.append(request)
        while self.waiting:
            request = self.waiting.popleft()
            request.status = RequestStatus.FAILED
            aborted.append(request)
        return aborted

    def check_invariants(self) -> None:
        """Recompute the step clock's bookkeeping by a scan (strict mode)."""
        clock = self._clock
        finishes = self._finishes
        for index in range(1, len(finishes)):
            if finishes[(index - 1) // 2][:2] > finishes[index][:2]:
                raise AssertionError("finish heap order broken")
        live = [entry for entry in finishes if entry[2].offset is not None]
        decoding = [seq for seq in self.running if seq.offset is not None]
        if len(live) != len(decoding) or {id(e[2]) for e in live} != {
            id(seq) for seq in decoding
        }:
            raise AssertionError("live finish-heap entries are not the running set")
        for finish, admission, seq in live:
            if finish != seq.request.output_len - seq.offset or admission != seq.admission:
                raise AssertionError("finish-heap entry disagrees with its sequence")
        remaining = [seq.request.output_len - (clock + seq.offset) for seq in decoding]
        if remaining and min(live)[0] - clock != min(remaining):
            raise AssertionError("finish-heap top is not the nearest finish")
        if any(not 1 <= clock + seq.offset < seq.request.output_len for seq in decoding):
            raise AssertionError("a running sequence's generated count is out of range")
        if any(seq.offset is None and seq.generated != 0 for seq in self.running):
            raise AssertionError("a sequence awaiting prefill has generated tokens")
        admissions = [seq.admission for seq in self.running]
        if any(a >= b for a, b in zip(admissions, admissions[1:])):
            raise AssertionError("running is not in admission order")
        if self.memory.output_tokens_in_use != sum(clock + seq.offset for seq in decoding):
            raise AssertionError("output-token total drifted from the step clock")
