"""Engine macrobenchmark (``repro.perf.engine_bench``).

One benchmark measures the sim core on real traffic:

* ``streamed_diurnal_cell`` — a full-day diurnal trace streamed through the
  real stack (skywalker balancers, replicas, network) by one
  :func:`~repro.experiments.run_experiment` call: each region's
  :class:`~repro.workloads.streams.DiurnalRequestStream` is a
  ``WorkloadSpec.timed_requests_by_region`` entry that
  :class:`~repro.cluster.TraceReplayClient` replays.  Reports events/sec
  (whose ``day_wall_s`` includes assembling the stack), the day's service
  throughput, cross-region share and TTFT p50/p90/p99, and the tracemalloc
  peak over a short and a doubled simulation window at the same rate; the
  window processes ~2x the requests but the peak must stay (near) flat —
  the streaming claim: no request objects, only in-flight state plus the
  tracker's ~50-byte completion columns.

The simulated counters are deterministic and everything is stdlib-only.
The committed report in ``BENCH_engine.json`` was produced by
``write_engine_report`` on one host (see PERFORMANCE.md); CI runs the quick
suite against the report's ``quick`` section via
``benchmarks/test_perf_engine.py``.
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .harness import BenchResult

__all__ = ["run_engine_bench", "write_engine_report", "ENGINE_SCHEMA", "ENGINE_REPORT_SCHEMA"]

ENGINE_SCHEMA = "repro-perf-engine/1"
ENGINE_REPORT_SCHEMA = "repro-perf-engine-report/1"


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

    The cell is one :func:`~repro.experiments.run_experiment` call, so
    ``wall_s`` covers assembling the stack as well as running it.

    ``traced=True`` wraps the run in tracemalloc (slower, so events/sec from
    traced runs is not comparable with untraced ones) and reports the peak
    traced heap -- the number whose *flatness across simulation windows* is
    the streaming claim.

    ``trie_max_tokens`` / ``hbm_fraction`` shrink the two capacity-bounded
    caches (the balancers' routing tries, the replicas' radix KV caches) so
    they *saturate* inside the flatness pair's short window.  Both caches
    legitimately grow with unique tokens seen until they hit their caps; at
    the default sizes (2M trie tokens, ~59k KV tokens x N replicas) a short
    traced run would read that bounded warm-up as request-linear growth.
    """
    from repro.experiments import (
        REGISTRY,
        ClusterConfig,
        ExperimentConfig,
        WorkloadSpec,
        run_experiment,
    )
    from repro.mem import MemoryConfig
    from repro.workloads import DiurnalPattern, DiurnalRequestStream

    overrides = {} if trie_max_tokens is None else {"trie_max_tokens": trie_max_tokens}
    # The cluster's default profile is the paper's own (LLAMA_8B_L4): its
    # ~25-100 ms batching steps keep a simulated day's decode-event count
    # tractable (the tiny unit-test profile steps every 2 ms).
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", **overrides),
        cluster=ClusterConfig(
            replicas_per_region={region: replicas_per_region for region in _DIURNAL_PATTERNS},
            memory=None if hbm_fraction >= 1.0 else MemoryConfig(hbm_fraction=hbm_fraction),
        ),
        duration_s=hours * 3600.0 + 600.0,  # the traced window plus a drain tail
        seed=seed,
    )
    workload = WorkloadSpec(
        name="streamed-diurnal",
        programs_by_region={},
        clients_per_region={},
        timed_requests_by_region={
            region: DiurnalRequestStream(
                pattern=DiurnalPattern(offset, base_rate=base, peak_rate=peak),
                region=region,
                hours=hours,
                seed=seed,
                rate_scale=rate_scale,
            )
            for region, (offset, base, peak) in _DIURNAL_PATTERNS.items()
        },
    )

    if traced:
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
    perf = time.perf_counter
    start = perf()
    run = run_experiment(config, workload)
    wall_s = perf() - start
    events = run.env.events_processed
    result: Dict[str, float] = {
        "rate_scale": rate_scale,
        "requests_issued": float(run.metrics.num_issued),
        "requests_completed": float(run.metrics.num_completed),
        "events": float(events),
        "wall_s": wall_s,
        "events_per_s": events / wall_s if wall_s > 0 else float("inf"),
        "outstanding": float(run.tracker.outstanding),
        "throughput_tokens_per_s": run.metrics.throughput_tokens_per_s,
        "cross_region_fraction": run.metrics.cross_region_fraction,
        "ttft_p50_s": run.metrics.ttft.p50,
        "ttft_p90_s": run.metrics.ttft.p90,
        "ttft_p99_s": run.metrics.ttft.p99,
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
    # hour) and ~50-byte completion columns, so it must stay near-flat.
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

    ``full`` is the headline run (the million-request day); ``quick`` is
    the CI-sized run CI uses as its regression baseline.
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
