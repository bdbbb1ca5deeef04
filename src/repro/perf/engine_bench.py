"""Engine macrobenchmarks (``repro.perf.engine_bench``).

Three benchmarks pin the million-event sim-core work:

* ``timeline_hold``       — the classic *hold model* run directly against the
  two timeline structures (``CalendarQueue`` vs the reference heap): keep N
  events pending, repeatedly pop the earliest and push a successor a random
  delay later.  This isolates scheduler cost from event machinery and is
  where the calendar queue's amortized O(1) shows up against the heap's
  O(log n) + cache-hostile sift path.  The committed full run (millions
  pending) is the ``>=2x`` headline; CI re-checks a looser, noise-safe bound
  on the quick run.
* ``engine_steps``        — the same hold model end-to-end through
  :class:`~repro.sim.Environment` (timeouts, callbacks, the works) for both
  timelines.  The ratio here is smaller by construction: Event allocation
  and callback dispatch are shared costs that dilute the scheduler win.
* ``streamed_diurnal_cell`` — a full-day diurnal trace streamed through the
  real stack (skywalker balancers, replicas, network) via
  :class:`~repro.workloads.streams.DiurnalRequestStream` and
  :class:`~repro.cluster.TraceReplayClient`, with
  ``RequestTracker(retain_completed=False)``.  Reports events/sec and the
  tracemalloc peak over a short and a doubled simulation window at the same
  rate; the window processes ~2x the requests but the peak must stay (near)
  flat — the O(1)-memory streaming claim.

Everything is deterministic and stdlib-only.  The committed before/after
report in ``BENCH_engine.json`` was produced by ``write_engine_report`` on
one host (see PERFORMANCE.md); CI runs the quick suite against the report's
``quick`` section via ``benchmarks/test_perf_engine.py``.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import time
import tracemalloc
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .harness import BenchResult

__all__ = ["run_engine_bench", "write_engine_report", "ENGINE_SCHEMA", "ENGINE_REPORT_SCHEMA"]

ENGINE_SCHEMA = "repro-perf-engine/1"
ENGINE_REPORT_SCHEMA = "repro-perf-engine-report/1"

#: Priority used for every synthetic entry (== ``repro.sim.engine.NORMAL``).
_NORMAL = 1


# ----------------------------------------------------------------------
# timeline_hold: structure-level hold model
# ----------------------------------------------------------------------
def _hold_ns_per_op(timeline, *, pending: int, ops: int, seed: int) -> float:
    """Run the hold model on a raw timeline and return ns per pop+push pair.

    The RNG sequence is fully determined by ``seed`` so the heap and the
    calendar see byte-identical workloads; GC is paused during the timed
    region so collection pauses don't land on one structure's tab.
    """
    rng = random.Random(seed)
    eid = 0
    for _ in range(pending):
        eid += 1
        timeline.push((rng.random() * 3600.0, _NORMAL, eid, None))
    # A small cycle of pre-drawn delays keeps RNG cost out of the timed loop.
    delays = [0.001 + rng.random() * 2.0 for _ in range(1024)]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        perf = time.perf_counter
        start = perf()
        for i in range(ops):
            when = timeline.pop()[0]
            eid += 1
            timeline.push((when + delays[i & 1023], _NORMAL, eid, None))
        elapsed = perf() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed / ops * 1e9


def _bench_timeline_hold(quick: bool) -> BenchResult:
    from repro.sim.calendar import CalendarQueue
    from repro.sim.engine import _HeapTimeline

    # The full size sits in the paper's regime -- millions of queued events
    # -- where the heap's log-depth sift and cache misses dominate.  Quick
    # keeps CI under a second per repeat while still deep enough to rank the
    # structures correctly.
    pending = 200_000 if quick else 4_000_000
    ops = 100_000 if quick else 400_000
    repeats = 2 if quick else 3
    result: BenchResult = {"pending": float(pending)}
    for name, factory in (("heap", _HeapTimeline), ("calendar", CalendarQueue)):
        best = float("inf")
        for repeat in range(repeats):
            best = min(
                best,
                _hold_ns_per_op(factory(), pending=pending, ops=ops, seed=42 + repeat),
            )
        result[f"{name}_ns_per_op"] = best
    result["speedup"] = result["heap_ns_per_op"] / result["calendar_ns_per_op"]
    return result


# ----------------------------------------------------------------------
# engine_steps: the hold model through Environment
# ----------------------------------------------------------------------
def _engine_ns_per_event(timeline_name: str, *, pending: int, ops: int, seed: int) -> float:
    from repro.sim import Environment

    env = Environment(timeline=timeline_name)
    rng = random.Random(seed)
    for _ in range(pending):
        env.timeout(rng.random() * 3600.0)
    delays = [0.001 + rng.random() * 2.0 for _ in range(1024)]
    timeout = env.timeout
    step = env.step
    perf = time.perf_counter
    start = perf()
    for i in range(ops):
        step()
        timeout(delays[i & 1023])
    elapsed = perf() - start
    return elapsed / ops * 1e9


def _bench_engine_steps(quick: bool) -> BenchResult:
    pending = 50_000 if quick else 1_000_000
    ops = 50_000 if quick else 200_000
    repeats = 2 if quick else 3
    result: BenchResult = {"pending": float(pending)}
    for name in ("heap", "calendar"):
        best = float("inf")
        for repeat in range(repeats):
            best = min(
                best,
                _engine_ns_per_event(name, pending=pending, ops=ops, seed=7 + repeat),
            )
        result[f"{name}_ns_per_event"] = best
        result[f"{name}_events_per_s"] = 1e9 / best
    result["speedup"] = result["heap_ns_per_event"] / result["calendar_ns_per_event"]
    return result


# ----------------------------------------------------------------------
# streamed_diurnal_cell: a full day through the real stack
# ----------------------------------------------------------------------
#: Per-region diurnal profiles for the macrobench cell (paper Fig. 2 shapes:
#: offsets put each region's peak in its local afternoon).
_DIURNAL_PATTERNS: Dict[str, Tuple[float, float, float]] = {
    # region: (utc_offset_hours, base_rate, peak_rate) in requests/hour
    "us": (-6.0, 900.0, 7600.0),
    "eu": (0.0, 250.0, 1900.0),
    "asia": (8.0, 800.0, 7400.0),
}


def _diurnal_streams(rate_scale: float, seed: int, hours: int = 24):
    from repro.workloads.diurnal import DiurnalPattern
    from repro.workloads.streams import DiurnalRequestStream

    streams = {}
    for region, (offset, base, peak) in _DIURNAL_PATTERNS.items():
        pattern = DiurnalPattern(offset, base_rate=base, peak_rate=peak)
        streams[region] = DiurnalRequestStream(
            pattern=pattern, region=region, hours=hours, seed=seed, rate_scale=rate_scale
        )
    return streams


def expected_diurnal_requests(rate_scale: float, hours: int = 24) -> int:
    """Expected request count across the three regions over ``hours``."""
    return sum(s.expected_requests() for s in _diurnal_streams(rate_scale, 0, hours).values())


def _run_streamed_cell(
    rate_scale: float,
    *,
    hours: int = 24,
    seed: int = 0,
    replicas_per_region: int = 4,
    traced: bool = False,
    trie_max_tokens: Optional[int] = None,
    hbm_fraction: float = 1.0,
) -> Dict[str, float]:
    """One full-day streamed diurnal cell; returns counters + timings.

    ``traced=True`` wraps the run in tracemalloc (slower, so events/sec from
    traced runs is not comparable with untraced ones) and reports the peak
    traced heap -- the number whose *flatness across simulation windows* is
    the O(1)-memory streaming claim.

    ``trie_max_tokens`` / ``hbm_fraction`` shrink the two capacity-bounded
    caches (the balancers' routing tries, the replicas' radix KV caches) so
    they *saturate* inside the flatness pair's short window.  Both caches
    legitimately grow with unique tokens seen until they hit their caps; at
    the default sizes (2M trie tokens, ~59k KV tokens x N replicas) a short
    traced run would read that bounded warm-up as request-linear growth.
    """
    from repro.cluster import (
        Deployment,
        Frontend,
        ReplicaSpec,
        RequestTracker,
        TraceReplayClient,
    )
    from repro.experiments.registry import REGISTRY
    from repro.experiments.runner import build_system
    from repro.mem import MemoryConfig
    from repro.net import Network
    from repro.network import default_topology
    from repro.replica import LLAMA_8B_L4
    from repro.sim import EmptySchedule, Environment

    # The paper's own replica profile: its ~25-100 ms continuous-batching
    # steps keep a simulated day's decode-event count tractable (the tiny
    # unit-test profile steps every 2 ms, which would drown the run in
    # replica events regardless of request count).
    env = Environment()
    topology = default_topology()
    network = Network(env, topology, jitter_fraction=0.05, seed=seed)
    deployment = Deployment(
        env,
        [
            ReplicaSpec(region=region, count=replicas_per_region, profile=LLAMA_8B_L4)
            for region in _DIURNAL_PATTERNS
        ],
        topology=topology,
        network=network,
        memory=None if hbm_fraction >= 1.0 else MemoryConfig(hbm_fraction=hbm_fraction),
    )
    tracker = RequestTracker(env, retain_completed=False)
    for replica in deployment.replicas:
        replica.add_completion_listener(tracker.complete)
    frontend = Frontend(env, network)
    overrides = {} if trie_max_tokens is None else {"trie_max_tokens": trie_max_tokens}
    build_system(
        REGISTRY.spec("skywalker", **overrides),
        env,
        network,
        deployment,
        frontend,
        client_regions=list(_DIURNAL_PATTERNS),
        hash_key="user",
    )
    clients = [
        TraceReplayClient(
            env,
            name=f"{region}/replay",
            region=region,
            frontend=frontend,
            tracker=tracker,
            timed_requests=stream,
        )
        for region, stream in _diurnal_streams(rate_scale, seed, hours).items()
    ]

    horizon = hours * 3600.0 + 600.0  # the traced window plus a drain tail
    steps = 0
    if traced:
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
    perf = time.perf_counter
    start = perf()
    try:
        while env.peek() <= horizon:
            env.step()
            steps += 1
    except EmptySchedule:
        pass
    wall_s = perf() - start
    result: Dict[str, float] = {
        "rate_scale": rate_scale,
        "requests_issued": float(sum(c.issued_requests for c in clients)),
        "requests_completed": float(tracker.num_completed),
        "events": float(steps),
        "wall_s": wall_s,
        "events_per_s": steps / wall_s if wall_s > 0 else float("inf"),
        "outstanding": float(tracker.outstanding),
    }
    if traced:
        _, peak = tracemalloc.get_traced_memory()
        if not was_tracing:
            tracemalloc.stop()
        result["alloc_peak_bytes"] = float(peak)
    return result


def _bench_streamed_diurnal_cell(quick: bool) -> BenchResult:
    # Two traced runs over a short and a doubled window at the *same* rate
    # pin memory flatness: the long window processes ~2x the requests, but
    # peak memory tracks the in-flight population (bounded by the busiest
    # hour), not the total processed, so the peak must stay near-flat.
    # (Doubling the *rate* instead would legitimately double the in-flight
    # population -- that measures concurrency, not streaming-ness.)  One
    # untraced run reports honest events/sec.  Full mode's untraced run is
    # the million-request day (rate_scale 5.0 over 24 h => ~1.07M expected
    # requests); quick stays small enough for CI by shrinking the simulated
    # window, not just the rate, because availability probes make sim-hours
    # themselves cost events.
    flat_hours = 1 if quick else 2
    flat_scale = 1.0 if quick else 2.0
    flat_replicas = 2 if quick else 6
    # Shrunk cache capacities so the bounded caches saturate early in the
    # short window (see _run_streamed_cell): ~20k trie tokens and ~15% of
    # the replicas' KV budget are each a few hundred cached prompts,
    # reached within the first simulated minutes.
    flat_trie_tokens = 20_000
    flat_hbm_fraction = 0.15
    result: BenchResult = {}
    short = _run_streamed_cell(
        flat_scale,
        hours=flat_hours,
        replicas_per_region=flat_replicas,
        traced=True,
        trie_max_tokens=flat_trie_tokens,
        hbm_fraction=flat_hbm_fraction,
    )
    long = _run_streamed_cell(
        flat_scale,
        hours=flat_hours * 2,
        replicas_per_region=flat_replicas,
        traced=True,
        trie_max_tokens=flat_trie_tokens,
        hbm_fraction=flat_hbm_fraction,
    )
    result["alloc_peak_bytes_short"] = short["alloc_peak_bytes"]
    result["alloc_peak_bytes_long"] = long["alloc_peak_bytes"]
    result["alloc_flatness_ratio"] = (
        long["alloc_peak_bytes"] / short["alloc_peak_bytes"]
        if short["alloc_peak_bytes"] > 0
        else float("inf")
    )
    result["flat_requests_short"] = short["requests_issued"]
    result["flat_requests_long"] = long["requests_issued"]
    if quick:
        timed = _run_streamed_cell(2.0, hours=1, replicas_per_region=2)
    else:
        timed = _run_streamed_cell(5.0, hours=24, replicas_per_region=6)
    for key, value in timed.items():
        result[f"day_{key}"] = value
    return result


_BENCHMARKS = {
    "timeline_hold": _bench_timeline_hold,
    "engine_steps": _bench_engine_steps,
    "streamed_diurnal_cell": _bench_streamed_diurnal_cell,
}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_engine_bench(
    quick: bool = False,
    out_path: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the engine macrobenchmarks and return (and optionally emit) JSON."""
    names = list(only) if only else list(_BENCHMARKS)
    unknown = sorted(set(names) - set(_BENCHMARKS))
    if unknown:
        raise ValueError(f"unknown benchmark(s): {unknown}; known: {sorted(_BENCHMARKS)}")
    results: Dict[str, BenchResult] = {}
    for name in names:
        results[name] = _BENCHMARKS[name](quick)
    payload: Dict[str, object] = {
        "schema": ENGINE_SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "benchmarks": results,
    }
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def write_engine_report(
    full: Dict[str, object],
    quick: Dict[str, object],
    out_path: str = "BENCH_engine.json",
) -> Dict[str, object]:
    """Combine a full and a quick engine-bench run into the committed report.

    ``full`` is the headline run (millions pending / the million-request
    day); ``quick`` is the CI-sized run CI uses as its regression baseline.
    """
    payload = {
        "schema": ENGINE_REPORT_SCHEMA,
        "full": full,
        "quick": quick,
    }
    Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.engine_bench",
        description="Run the sim-engine macrobenchmarks.",
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="", help="output JSON path ('' = stdout only)")
    parser.add_argument("--only", nargs="*", default=None, help="subset of benchmark names")
    args = parser.parse_args(argv)
    payload = run_engine_bench(quick=args.quick, out_path=args.out or None, only=args.only)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
