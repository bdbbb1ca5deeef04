"""The replica server: a simulated SGLang/vLLM-style inference engine.

A :class:`ReplicaServer` consumes requests from its inbox, runs them through
a :class:`ContinuousBatcher`, and notifies listeners when first tokens and
completions happen.  Load balancers never call into the batcher directly --
they observe the replica the same way the real system does, through the
probe properties (``num_pending``, ``num_outstanding``, ...) exposed here and
accessed via the network layer with realistic probe latency.

The serving loop is a callback state machine, not a simulation process: the
replica waits on exactly one event at a time -- an inbox ``get()`` when idle,
a prefill ``Timeout``, or the wake that ends a *decode run*.  A decode run is
every decode step up to the next batch change
(:meth:`ContinuousBatcher.decode_run_length`); it costs one event instead of
one per step.  The steps inside a run are applied lazily: every read of
per-step state (:attr:`ReplicaServer.batcher`, :attr:`~ReplicaServer.stats`
and :meth:`~ReplicaServer.fail`) first applies the steps that have ended by
``now``, and an arrival or a change of compute rate cuts the run at the
first step boundary not before ``now``.  The probe reads
(:attr:`~ReplicaServer.memory_utilization`, :meth:`~ReplicaServer.load`)
apply nothing: they count the steps that have ended instead, each of which
adds one token per running sequence.  The simulation is bit-identical to
stepping one ``Timeout`` at a time; ``tests/replica/test_decode_runs.py``
checks it against that loop.

Applying steps touches no sequence: the batcher keeps a step clock (see
:mod:`repro.replica.batching`), so applying ``k`` steps moves the clock,
the token totals and the step statistics, and a run's last step pops only
the sequences that finish on it.  The per-sequence token counters are
written when a sequence leaves the batch and on every
:attr:`~ReplicaServer.batcher` read, which is what makes that read a
catch-up.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Tuple

from ..mem import MemoryConfig
from ..sim import Environment, Event, Store
from ..workloads.request import Request, RequestStatus
from .batching import ContinuousBatcher, StepPlan
from .model_profile import LLAMA_8B_L4, ModelProfile, resolve_performance_scale

__all__ = ["ReplicaServer", "ReplicaStats"]

RequestCallback = Callable[[Request], None]


class ReplicaStats:
    """Aggregated, monotonic counters for one replica."""

    def __init__(self) -> None:
        self.busy_time = 0.0
        self.prefill_time = 0.0
        self.decode_time = 0.0
        self.steps = 0
        self.utilization_samples: List[Tuple[float, float]] = []

    def record_step(self, kind: str, duration: float) -> None:
        self.busy_time += duration
        self.steps += 1
        if kind == "prefill":
            self.prefill_time += duration
        else:
            self.decode_time += duration


class _Inbox(Store):
    """A replica's inbox: a :class:`Store` that reports every put, so that
    an arrival can cut the decode run in flight."""

    def __init__(self, env: Environment, on_put: Callable[["_Inbox"], None]) -> None:
        super().__init__(env)
        self._on_put = on_put

    def put(self, item):
        event = super().put(item)
        self._on_put(self)
        return event

    def put_nowait(self, item) -> None:
        super().put_nowait(item)
        self._on_put(self)


class ReplicaServer:
    """One model replica in one region.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Unique replica name, e.g. ``"us/replica-0"``.
    region:
        Region the replica is deployed in.
    profile:
        Latency/memory model; defaults to Llama-3.1-8B on an L4, the paper's
        configuration.
    memory:
        The :class:`~repro.mem.MemoryConfig` of the replica's KV memory; the
        default ``MemoryConfig()`` is the flat legacy budget, and other
        configs page and tier it.
    record_utilization:
        When set, the replica appends ``(time, kv_utilization)`` samples after
        every step; used to reproduce the paper's Fig. 4b.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        profile: ModelProfile = LLAMA_8B_L4,
        *,
        memory: MemoryConfig = MemoryConfig(),
        record_utilization: bool = False,
    ) -> None:
        self.env = env
        self.name = name
        self.region = region
        self.profile = profile
        self.memory_config = memory
        self._batcher = ContinuousBatcher(profile, memory=memory)
        self.inbox: Store = _Inbox(env, self._on_put)
        self._stats = ReplicaStats()
        self.record_utilization = record_utilization
        self.healthy = True
        # Gray-failure state: a degraded replica stays healthy and keeps
        # serving, just slower.  ``_degrade_until is None`` means "until an
        # explicit restore"; the epoch counter guards against a stale timed
        # restore clobbering a newer degrade.
        self._degrade_scale: float = 1.0
        self._degrade_until: Optional[float] = None
        self._degrade_epoch: int = 0
        self._on_complete: List[RequestCallback] = []
        self._on_health: List[Callable[["ReplicaServer"], None]] = []
        # The one event the replica waits on; a callback whose event is no
        # longer ``_pending`` (a cut run's old wake, anything in flight at a
        # crash) does nothing.
        self._pending: Optional[Event] = None
        self._prefill: Optional[StepPlan] = None
        # The decode run in flight: the boundary times and durations of its
        # steps, how many steps it has (0 when no run is in flight) and how
        # many of them have been applied.
        self._bounds: List[float] = []
        self._durations: List[float] = []
        self._end = 0
        self._applied = 0
        self._next_step()

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def add_completion_listener(self, callback: RequestCallback) -> None:
        """Register a callback invoked (with the request) on completion."""
        self._on_complete.append(callback)

    def add_health_listener(self, callback: Callable[["ReplicaServer"], None]) -> None:
        """Register a callback invoked (with the replica) on fail/recover."""
        self._on_health.append(callback)

    def remove_completion_listener(self, callback: RequestCallback) -> None:
        """Detach a completion listener (no-op if not registered)."""
        if callback in self._on_complete:
            self._on_complete.remove(callback)

    def remove_health_listener(self, callback: Callable[["ReplicaServer"], None]) -> None:
        """Detach a health listener (no-op if not registered)."""
        if callback in self._on_health:
            self._on_health.remove(callback)

    def _emit_health_change(self) -> None:
        for callback in self._on_health:
            callback(self)

    def submit(self, request: Request):
        """Hand a request to the replica (returns the store-put event)."""
        if not self.healthy:
            raise RuntimeError(f"replica {self.name} is down")
        return self.inbox.put(request)

    def fail(self) -> List[Request]:
        """Crash the replica: abort all work and stop the serving loop."""
        if not self.healthy:
            return []
        # Health is read by probes in flight (Environment.settle).
        self.env.settle()
        self._sync()
        self.healthy = False
        self._stop()
        aborted = self._batcher.abort_all(self.env.now)
        while self.inbox.items:
            request = self.inbox.items.popleft()
            request.status = RequestStatus.FAILED
            aborted.append(request)
        self._emit_health_change()
        return aborted

    def recover(self, *, preserve_disk: bool = False) -> None:
        """Bring a failed replica back with a cold cache.

        HBM (and host RAM) contents never survive a crash, but with
        ``preserve_disk`` the disk tier's segments carry over into the fresh
        batcher -- modelling durable KV offload that a restarted engine can
        re-attach (only meaningful with a tiered :class:`MemoryConfig`).
        """
        if self.healthy:
            return
        self.env.settle()
        self.healthy = True
        old_tiers = self._batcher.memory.tiers
        self._batcher = ContinuousBatcher(self.profile, memory=self.memory_config)
        if preserve_disk and old_tiers is not None:
            new_tiers = self._batcher.memory.tiers
            if new_tiers is not None:
                new_tiers.restore_tier("disk", old_tiers.export_tier("disk"), self.env.now)
        # Degrade/crash precedence: a restart clears transient slowness (the
        # replacement engine comes up at full rate) UNLESS the degrade window
        # is still open -- an environmental cause (thermal, power cap) outlasts
        # the process, so it re-applies to the fresh batcher.
        if self._degrade_scale != 1.0 and (
            self._degrade_until is None or self.env.now < self._degrade_until
        ):
            self._batcher.performance_scale = self._degrade_scale
        else:
            self._clear_degrade()
        # A fresh inbox: the crashed serving loop may have left an orphaned
        # get() registered on the old store, which would silently swallow the
        # first request delivered after recovery.
        self.inbox = _Inbox(self.env, self._on_put)
        self._next_step()
        self._emit_health_change()

    # ------------------------------------------------------------------
    # gray failures (slow-but-alive)
    # ------------------------------------------------------------------
    @property
    def performance_scale(self) -> float:
        """Current compute-rate multiplier (1.0 = nominal)."""
        return self._degrade_scale

    def set_performance_level(self, level, *, until: Optional[float] = None) -> int:
        """Degrade the replica to ``level`` (a name or a float in (0, 1]).

        The replica stays healthy and keeps accepting work; only compute
        stretches.  ``until`` records when a timed degrade is scheduled to
        lift (used by crash-recovery precedence).  Returns an epoch token to
        pass to :meth:`restore_performance` so a stale timed restore cannot
        clobber a newer degrade.  Works on unhealthy replicas too: the level
        is remembered and applied when (if) the crash recovery keeps it.
        """
        scale = resolve_performance_scale(level)
        self._degrade_scale = scale
        self._degrade_until = until
        self._degrade_epoch += 1
        self._cut()
        self._batcher.performance_scale = scale
        return self._degrade_epoch

    def restore_performance(self, token: int) -> None:
        """Return to nominal rates, unless a newer degrade has been applied
        since :meth:`set_performance_level` issued ``token``."""
        if token != self._degrade_epoch:
            return
        self._clear_degrade()

    def _clear_degrade(self) -> None:
        self._degrade_scale = 1.0
        self._degrade_until = None
        self._cut()
        self._batcher.performance_scale = 1.0

    # ------------------------------------------------------------------
    # probe interface (observable load signals)
    # ------------------------------------------------------------------
    # Queue lengths and cache counters only change at a plan or at the end
    # of a decode run, and KV memory grows by one token per running sequence
    # per step inside a run, so every probe read is exact without catching
    # up.
    @property
    def num_pending(self) -> int:
        """Requests not yet scheduled into the continuous batch (§3.3)."""
        return self._batcher.num_pending + len(self.inbox.items)

    @property
    def num_running(self) -> int:
        return self._batcher.num_running

    @property
    def num_outstanding(self) -> int:
        return self._batcher.num_outstanding + len(self.inbox.items)

    @property
    def memory_utilization(self) -> float:
        """Fraction of the KV budget in use at ``now`` (applies no step)."""
        return self._utilization(len(self._batcher.running))

    def load(self) -> Tuple[int, int, int, float]:
        """``(num_pending, num_running, num_outstanding,
        memory_utilization)`` in one read: what an availability probe sees."""
        batcher = self._batcher
        queued = len(self.inbox.items)
        pending = len(batcher.waiting)
        running = len(batcher.running)
        return (
            pending + queued,
            running,
            pending + running + queued,
            self._utilization(running),
        )

    def _utilization(self, running: int) -> float:
        memory = self._batcher.memory
        capacity = memory.capacity_tokens
        if not capacity:
            return 0.0
        return (memory.used_tokens + self._ended_steps() * running) / capacity

    @property
    def cache_hit_rate(self) -> float:
        return self._batcher.cache_hit_rate

    @property
    def batcher(self) -> ContinuousBatcher:
        """The scheduler state, caught up to ``now``, with every running
        sequence's token counters written."""
        self._sync()
        self._batcher.write_counters()
        return self._batcher

    @property
    def stats(self) -> ReplicaStats:
        """The step counters, caught up to ``now``."""
        self._sync()
        return self._stats

    # ------------------------------------------------------------------
    # serving loop
    # ------------------------------------------------------------------
    def _emit_completions(self, requests: List[Request]) -> None:
        for request in requests:
            request.replica_name = self.name
            request.serving_region = self.region
            for callback in self._on_complete:
                callback(request)

    def _next_step(self) -> None:
        """Admit what arrived, plan the next step and wait for its end."""
        env = self.env
        batcher = self._batcher
        items = self.inbox.items
        while items:
            batcher.enqueue(items.popleft(), env.now)
        plan = batcher.plan_step(env.now)
        if plan.kind == "decode":
            steps = batcher.decode_run_length()
            self._durations = durations = batcher.decode_durations(steps)
            bounds = []
            when = env.now
            for duration in durations:
                when += duration
                bounds.append(when)
            self._bounds = bounds
            self._end = steps
            self._applied = 0
            self._wait(env.timeout_at(when), self._on_decoded)
        elif plan.kind == "prefill":
            self._prefill = plan
            self._wait(env.timeout(plan.duration), self._on_prefilled)
        else:
            self._wait(self.inbox.get(), self._on_arrival)

    def _wait(self, event: Event, callback: Callable[[Event], None]) -> None:
        event.callbacks.append(callback)
        self._pending = event

    def _stop(self) -> None:
        """Drop the step in flight (its event pops as a no-op)."""
        self._pending = None
        self._end = self._applied = 0

    def _on_arrival(self, event: Event) -> None:
        # A get() orphaned by a crash still takes one item; it is dropped.
        if event is self._pending:
            self._batcher.enqueue(event.value, self.env.now)
            self._next_step()

    def _on_prefilled(self, event: Event) -> None:
        if event is not self._pending:
            return
        plan = self._prefill
        self._prefill = None
        self._stats.record_step("prefill", plan.duration)
        finished = self._batcher.complete_prefill(plan.admitted, self.env.now)
        self._step_done(event, finished)

    def _on_decoded(self, event: Event) -> None:
        if event is not self._pending:
            return
        last = self._end - 1
        if last > self._applied:
            self._apply(last)
        self._end = self._applied = 0
        self._stats.record_step("decode", self._durations[last])
        self._step_done(event, self._batcher.complete_decode_step(self.env.now))

    def _step_done(self, event: Event, finished: List[Request]) -> None:
        if finished:
            self._emit_completions(finished)
        if self.record_utilization:
            self._stats.utilization_samples.append(
                (self.env.now, self._batcher.memory_utilization)
            )
        # A listener may have crashed (or crashed and recovered) the replica.
        if event is self._pending:
            self._next_step()

    def _apply(self, steps: int) -> None:
        """Apply the run's steps up to ``steps`` (none of them finishes a
        sequence: the run ends at the first step that does)."""
        start = self._applied
        self._applied = steps
        stats = self._stats
        # ReplicaStats.record_step inlined, one addition per step as before.
        busy = stats.busy_time
        decode = stats.decode_time
        for duration in self._durations[start:steps]:
            busy += duration
            decode += duration
        stats.busy_time = busy
        stats.decode_time = decode
        stats.steps += steps - start
        batcher = self._batcher
        if self.record_utilization:
            # Each step adds one output token per running sequence and
            # nothing else moves KV memory inside a run.
            memory = batcher.memory
            batch = len(batcher.running)
            used = memory.used_tokens
            capacity = memory.capacity_tokens
            for when in self._bounds[start:steps]:
                used += batch
                stats.utilization_samples.append(
                    (when, used / capacity if capacity else 0.0)
                )
        batcher.advance_decode(steps - start)

    def _ended_steps(self) -> int:
        """How many unapplied steps of the run in flight have ended by
        ``now``, not counting its last step, which belongs to the wake."""
        last = self._end - 1
        applied = self._applied
        if last > applied:
            return bisect_right(self._bounds, self.env.now, applied, last) - applied
        return 0

    def _sync(self) -> None:
        """Apply the steps of the run in flight that have ended by ``now``."""
        done = self._ended_steps()
        if done:
            self._apply(self._applied + done)

    def _cut(self) -> None:
        """End the run in flight at its first unapplied boundary not before
        ``now``, so the next plan sees what just changed."""
        end = self._end
        if end:
            step = bisect_left(self._bounds, self.env.now, self._applied, end) + 1
            if step < end:
                self._end = step
                self._wait(self.env.timeout_at(self._bounds[step - 1]), self._on_decoded)

    def _on_put(self, inbox: "_Inbox") -> None:
        if inbox is self.inbox:
            self._cut()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ReplicaServer {self.name} region={self.region} "
            f"pending={self.num_pending} running={self.num_running}>"
        )
