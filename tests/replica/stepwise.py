"""The replica serving loop that steps one ``Timeout`` per batch step.

:class:`StepwiseReplica` is the reference the decode-run replica is checked
against (``test_decode_runs.py``): a generator process that plans, sleeps
for exactly one step and applies it, over and over -- one event per decode
step, with every piece of state current the moment its step ends.  It shares
everything else (fail/recover, gray-failure levels, the probe surface) with
:class:`~repro.replica.ReplicaServer`.
"""

from repro.replica import ReplicaServer
from repro.sim import Interrupt


class StepwiseReplica(ReplicaServer):
    """A :class:`ReplicaServer` that runs one simulation process stepping
    one ``Timeout`` per prefill or decode step."""

    def _next_step(self) -> None:
        # Reached at construction and at recovery only: the loop below
        # plans its own steps.
        self._process = self.env.process(self._run())

    def _stop(self) -> None:
        if self._process.is_alive:
            self._process.interrupt("replica-failure")

    # Nothing is ever behind ``now`` and there is no run to cut.
    def _sync(self) -> None:
        pass

    def _cut(self) -> None:
        pass

    def _drain_inbox(self) -> None:
        while self.inbox.items:
            request = self.inbox.items.popleft()
            self.batcher.enqueue(request, self.env.now)

    def _run(self):
        env = self.env
        try:
            while True:
                self._drain_inbox()
                plan = self.batcher.plan_step(env.now)
                if plan.kind == "idle":
                    request = yield self.inbox.get()
                    self.batcher.enqueue(request, env.now)
                    continue
                yield env.timeout(plan.duration)
                self.stats.record_step(plan.kind, plan.duration)
                if plan.kind == "prefill":
                    newly_running = [seq.request for seq in plan.admitted]
                    finished = self.batcher.complete_prefill(plan.admitted, env.now)
                    self._emit_first_tokens(newly_running)
                else:
                    finished = self.batcher.complete_decode_step(env.now)
                    just_got_first = [
                        r for r in finished if r.generated_tokens == 1
                    ]
                    self._emit_first_tokens(just_got_first)
                if finished:
                    self._emit_completions(finished)
                if self.record_utilization:
                    self.stats.utilization_samples.append(
                        (env.now, self.memory_utilization)
                    )
        except Interrupt:
            # Replica failure: simply stop serving.  ``fail`` already aborted
            # outstanding work.
            return
