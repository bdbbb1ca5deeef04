"""The batcher's step clock against the per-sequence decode loops it
replaced.

:class:`LoopBatcher` is the reference: a :class:`ContinuousBatcher` whose
decode bookkeeping moves every running sequence's counters on every step
and takes the run length as a ``min`` over the batch.  Seeded random
histories of arrivals, prefills, decode runs (applied in bulk pieces, as a
replica applies them), preemptions under KV pressure and crashes drive a
clock batcher and the reference side by side; after every operation both
must agree on what finished (and in which order), on every running
sequence's counters and on every total.  Unlike the stepwise replica
oracle, which drives the same batcher as the replica it checks, this
catches a batcher-level error.
"""

import random
from dataclasses import replace

import pytest

from repro.replica import ContinuousBatcher, TINY_TEST_PROFILE
from repro.workloads.request import Request


class LoopBatcher(ContinuousBatcher):
    """Decode bookkeeping by per-sequence loops (no clock, no heap)."""

    def complete_prefill(self, admitted, now):
        finished = []
        for seq in admitted:
            seq.generated = 1
            self.memory.add_output_token(seq.request.request_id)
            seq.request.generated_tokens = 1
            if seq.request.first_token_time is None:
                seq.request.first_token_time = now
            self.total_generated_tokens += 1
            if seq.generated >= seq.request.output_len:
                finished.append(self._finish(seq, now))
        return finished

    def decode_run_length(self):
        batch = len(self.running)
        if self.waiting and batch < self.profile.max_batch_size:
            return 1
        steps = min(seq.request.output_len - seq.generated for seq in self.running)
        if batch > 1:
            steps = min(steps, max(1, self.memory.free_tokens // batch))
        return steps

    def advance_decode(self, steps):
        for seq in self.running:
            seq.generated += steps
            self.memory.add_output_token(seq.request.request_id, steps)
            seq.request.generated_tokens = seq.generated
        self.total_generated_tokens += steps * len(self.running)

    def check_invariants(self):
        """The reference keeps no clock or heap to check (strict mode runs
        this after every plan and decode step)."""

    def complete_decode_step(self, now):
        self.advance_decode(1)
        finished = []
        for seq in list(self.running):
            if seq.generated >= seq.request.output_len:
                finished.append(self._finish(seq, now))
        return finished


#: Batches of 48 over 2,800 KV tokens: wide, and under pressure.
PROFILE = replace(TINY_TEST_PROFILE, max_batch_size=48, gpu_memory_bytes=3_800)


def _state(batcher: ContinuousBatcher, index) -> tuple:
    batcher.write_counters()
    # The grants agree with the manager's running total once written (its
    # capacity check is left out: a lone sequence may outgrow the budget).
    grants = sum(s.grant.output_tokens for s in batcher.running)
    assert grants == batcher.memory.output_tokens_in_use
    return (
        [
            (index[id(s.request)], s.generated, s.request.generated_tokens, s.grant.output_tokens)
            for s in batcher.running
        ],
        [index[id(r)] for r in batcher.waiting],
        batcher.total_generated_tokens,
        batcher.total_finished,
        batcher.total_preemptions,
        batcher.total_preempted_tokens,
        batcher.memory.used_tokens,
    )


@pytest.mark.parametrize("seed", range(12))
def test_step_clock_matches_the_per_sequence_loops(seed):
    rng = random.Random(seed)
    clock, loop = ContinuousBatcher(PROFILE), LoopBatcher(PROFILE)
    index = {}
    shared = tuple(range(50_000, 50_040))
    now, finished, preempted = 0.0, 0, 0
    for step in range(600):
        now += 0.01
        roll = rng.random()
        if roll < 0.3:
            prompt = shared[: rng.choice((0, 20, 40))] + tuple(
                range(1_000 * step, 1_000 * step + rng.randint(5, 60))
            )
            output_len = rng.choice((1, 2, rng.randint(3, 90)))
            for batcher in (clock, loop):
                request = Request(prompt_tokens=prompt, output_len=output_len)
                index[id(request)] = step
                batcher.enqueue(request, now)
        elif roll < 0.31:
            aborted = [
                sorted(index[id(r)] for r in batcher.abort_all(now)) for batcher in (clock, loop)
            ]
            assert aborted[0] == aborted[1]
        else:
            plans = [batcher.plan_step(now) for batcher in (clock, loop)]
            assert plans[0].kind == plans[1].kind
            assert plans[0].duration == plans[1].duration
            if plans[0].kind == "prefill":
                done = [
                    b.complete_prefill(p.admitted, now) for b, p in zip((clock, loop), plans)
                ]
            elif plans[0].kind == "decode":
                steps = clock.decode_run_length()
                assert steps == loop.decode_run_length()
                applied = 0
                while applied < steps - 1:
                    piece = rng.randint(1, steps - 1 - applied)
                    for batcher in (clock, loop):
                        batcher.advance_decode(piece)
                    applied += piece
                    assert _state(clock, index) == _state(loop, index)
                done = [batcher.complete_decode_step(now) for batcher in (clock, loop)]
            else:
                done = [[], []]
            assert [index[id(r)] for r in done[0]] == [index[id(r)] for r in done[1]]
            finished += len(done[0])
        preempted = clock.total_preemptions
        assert _state(clock, index) == _state(loop, index)
        clock.check_invariants()
    assert finished > 50
    if seed == 0:
        assert preempted > 0, "the history never preempted"
