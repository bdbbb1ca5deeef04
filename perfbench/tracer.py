"""Per-layer tracing from outside the program.

:func:`traced` patches the public functions of each layer of ``repro`` for
the duration of one traced simulation and restores them afterwards; nothing
under ``src/`` changes.  It records:

* **spans** -- one per call of a wrapped function and one per resume of a
  simulation process's generator, labelled with the layer (the package
  under ``repro``) the code belongs to.  A span's *self time* is its
  duration minus the time covered by the spans it encloses, so summing
  self time by label splits the run's host time across layers.
* **event origins** -- every ``Environment.schedule`` call is attributed to
  the layer of the generator behind ``env.active_process`` (``other`` when
  no process is running).  Availability-monitor generators count as
  ``core.probe``, every other ``core`` generator as ``core.serve``.
* **call counts and inclusive times** of the routing, trie and batching
  entry points the per-layer metrics name.

Every process in ``repro`` is created through ``Environment.process``, so
wrapping that one function reaches every generator.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List

from repro.cluster import Frontend, RequestTracker
from repro.core.prefix_tree import PrefixTree
from repro.core.selection import SelectionPolicy
from repro.network import Network
from repro.replica.batching import ContinuousBatcher
from repro.replica.kv_cache import RadixCache
from repro.sim import Environment

from outcomes import Recorder

_perf = time.perf_counter

#: Module whose generators are the availability probes.
PROBE_MODULE = "repro.core.availability"


def layer_of(module: str) -> str:
    """``repro.<layer>.x`` -> ``<layer>``; anything else -> ``other``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def origin_of(module: str) -> str:
    layer = layer_of(module)
    if layer == "core":
        return "core.probe" if module == PROBE_MODULE else "core.serve"
    return layer


class Tracer:
    """Span stack, self times, event origins and call statistics."""

    def __init__(self) -> None:
        #: Open spans: ``[label, start, time covered by child spans]``.
        self._open: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.call_s: Dict[str, float] = defaultdict(float)
        self.events: Counter = Counter()
        self.events_by_generator: Counter = Counter()
        self.processes: Counter = Counter()
        self.counts: Counter = Counter()

    def enter(self, label: str) -> None:
        self._open.append([label, _perf(), 0.0])

    def exit(self) -> float:
        label, start, child = self._open.pop()
        duration = _perf() - start
        self.self_s[label] += duration - child
        if self._open:
            self._open[-1][2] += duration
        return duration

    def layer_self_s(self, layer: str) -> float:
        return sum(
            (
                seconds
                for label, seconds in self.self_s.items()
                if label == layer or label.startswith(layer + ".")
            ),
            0.0,
        )

    def mean_us(self, stat: str) -> float:
        calls = self.calls[stat]
        return self.call_s[stat] / calls * 1e6 if calls else 0.0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def span(self, label: str, fn, stat: str = ""):
        """``fn`` wrapped in a span; ``stat`` also counts calls and time."""
        enter, leave = self.enter, self.exit
        calls, call_s = self.calls, self.call_s

        def wrapper(*args, **kwargs):
            enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = leave()
                if stat:
                    calls[stat] += 1
                    call_s[stat] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def stream(self, iterable):
        """Time every item drawn from a request stream as ``workloads``."""
        return _TimedIterator(self, iter(iterable))

    def generate(self, builder, **kwargs):
        """Run a workload builder inside a ``workloads`` span."""
        return self.span("workloads", builder)(**kwargs)

    def drive(self, workload, stack, lap) -> None:
        """Run the simulation inside the root ``sim`` span: whatever the
        run loop does outside every other span is the kernel's own time."""
        self.span("sim", workload.drive)(stack, lap)


class _TimedIterator:
    __slots__ = ("_tracer", "_it")

    def __init__(self, tracer: Tracer, it: Iterator) -> None:
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.enter("workloads")
        try:
            return next(self._it)
        finally:
            self._tracer.exit()


class _TracedGenerator:
    """A process generator whose every resume is a span of its layer."""

    __slots__ = ("_gen", "_tracer", "origin", "qualname")

    def __init__(self, tracer: Tracer, gen) -> None:
        self._gen = gen
        self._tracer = tracer
        module = gen.gi_frame.f_globals.get("__name__", "") if gen.gi_frame else ""
        self.origin = origin_of(module)
        self.qualname = f"{module}.{gen.__qualname__}"

    def send(self, value):
        self._tracer.enter(self.origin)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.exit()

    def throw(self, *exc):
        self._tracer.enter(self.origin)
        try:
            return self._gen.throw(*exc)
        finally:
            self._tracer.exit()


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, old in reversed(self._saved):
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._saved.clear()

    def methods(self, tracer: Tracer, base: type, names, stat: str = "") -> None:
        """Wrap ``names`` on ``base`` and on every subclass that overrides
        them, each in a span of the layer its own code lives in."""
        classes = [base]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            for name in names:
                fn = cls.__dict__.get(name)
                if fn is not None:
                    label = layer_of(fn.__module__)
                    self.set(cls, name, tracer.span(label, fn, stat))


def _install(tracer: Tracer, patches: _Patches) -> None:
    events, by_generator, processes = (
        tracer.events,
        tracer.events_by_generator,
        tracer.processes,
    )
    enter, leave = tracer.enter, tracer.exit

    # -- sim: schedule attributes events (the run itself is the root span,
    # see Tracer.drive).
    schedule = Environment.schedule

    def traced_schedule(env, *args, **kwargs):
        process = env.active_process
        gen = process._generator if process is not None else None
        if gen is None:
            events["other"] += 1
            by_generator["(no process)"] += 1
        else:
            events[gen.origin] += 1
            by_generator[gen.qualname] += 1
        enter("sim")
        try:
            return schedule(env, *args, **kwargs)
        finally:
            leave()

    patches.set(Environment, "schedule", traced_schedule)
    process = Environment.process

    def traced_process(env, generator):
        wrapped = _TracedGenerator(tracer, generator)
        processes[wrapped.origin] += 1
        return process(env, wrapped)

    patches.set(Environment, "process", traced_process)

    # -- core: candidate selection and the routing tries.
    patches.methods(tracer, SelectionPolicy, ("select_replica", "select_balancer"), "route")
    for name in ("best_target", "match_length", "insert"):
        patches.methods(tracer, PrefixTree, (name,), f"trie_{name}")

    # -- replica: step planning and completion, KV eviction.
    counts = tracer.counts
    plan_step = ContinuousBatcher.plan_step

    def counted_plan_step(batcher, now):
        plan = plan_step(batcher, now)
        if plan.kind == "decode":
            counts["decode_steps"] += 1
            counts["decode_batch_total"] += len(batcher.running)
        elif plan.kind == "prefill":
            counts["prefill_steps"] += 1
        return plan

    patches.set(
        ContinuousBatcher, "plan_step", tracer.span("replica", counted_plan_step, "step")
    )
    patches.methods(
        tracer, ContinuousBatcher, ("complete_prefill", "complete_decode_step"), "step"
    )
    evict = RadixCache.evict

    def counted_evict(cache, *args, **kwargs):
        evicted = evict(cache, *args, **kwargs)
        counts["evicted_tokens"] += evicted
        return evicted

    patches.set(RadixCache, "evict", tracer.span("replica", counted_evict))

    # -- network / net: message paths (RoutedNetwork overrides land in net).
    patches.methods(
        tracer, Network, ("deliver", "call_after_delay", "probe_delay", "stream_response")
    )

    # -- cluster: the client-facing frontend and the completion tracker.
    patches.methods(tracer, Frontend, ("dispatch",), "dispatch")
    patches.methods(tracer, RequestTracker, ("register", "complete", "fail"))

    # The benchmark's own completion checks are no layer's work.
    patches.set(Recorder, "complete", tracer.span("bench", Recorder.complete))


@contextmanager
def traced():
    """Install the tracer's wrappers for the duration of the block."""
    tracer = Tracer()
    patches = _Patches()
    _install(tracer, patches)
    try:
        yield tracer
    finally:
        patches.restore()
