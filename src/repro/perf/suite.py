"""The hot-path microbenchmark suite (``repro.perf.run_suite``).

Each benchmark targets one path the routing stack exercises per request:

* ``trie_best_target``      — router-side prefix lookup (time + transient
  allocation volume; the allocation number is what the "allocation-free
  descent" work moves),
* ``trie_insert_evict``     — insert into a capacity-bounded tree, paying
  eviction on every call,
* ``trie_evict_scaling``    — per-eviction cost at growing tree sizes; the
  log-log slope distinguishes a full-tree scan (~1) from a heap pop (~0),
* ``trie_remove_target``    — decommissioning a target (full erase + prune),
* ``radix_evict_scaling``   — replica-side LRU eviction at growing sizes,
* ``radix_admission``       — the match/insert/evict cycle a replica runs
  per admitted request,
* ``fig8_wildchat_cell``    — one full (wildchat, skywalker) macro-sweep
  cell per seed, timed through the sweep executor's per-cell wall-clock
  channel (``cell_seconds_seed<N>``; ``wall_s`` is the base seed's best),
* ``net_transit_sampling``  — multi-hop one-way latency sampling on the
  routed backbone network: the fault-free ``_route_base`` fast path and
  the per-edge walk a latency spike forces, per sampled pair.

Everything is deterministic (fixed-seed RNG builds the synthetic token
paths) and stdlib-only.  The suite runs unchanged against the
pre-optimization implementations, which is how the committed before/after
report in ``BENCH_hotpaths.json`` was produced (see PERFORMANCE.md).
"""

from __future__ import annotations

import json
import platform
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .harness import BenchResult, alloc_peak_bytes, loglog_slope, time_op

__all__ = ["run_suite", "write_report", "SUITE_SCHEMA", "REPORT_SCHEMA"]

SUITE_SCHEMA = "repro-perf/1"
REPORT_SCHEMA = "repro-perf-report/1"

#: Targets used by every trie benchmark; includes the r9/r10 pair whose
#: ``repr`` ordering motivated the deterministic tie-break satellite.
_TARGETS = tuple(f"r{i}" for i in range(12))


# ----------------------------------------------------------------------
# deterministic synthetic token paths
# ----------------------------------------------------------------------
def _make_paths(
    rng: random.Random,
    count: int,
    *,
    n_shared: int = 16,
    shared_len: int = 48,
    unique_len: int = 80,
    vocab: int = 50_000,
) -> List[Tuple[int, ...]]:
    """Paths with wildchat-like shape: a shared head plus a unique tail."""
    shared = [
        tuple(rng.randrange(vocab) for _ in range(shared_len)) for _ in range(n_shared)
    ]
    return [
        shared[i % n_shared] + tuple(rng.randrange(vocab) for _ in range(unique_len))
        for i in range(count)
    ]


def _build_tree(paths: Sequence[Tuple[int, ...]], max_tokens: float = float("inf")):
    from repro.core.prefix_tree import PrefixTree

    tree = PrefixTree(max_tokens=max_tokens)
    for i, path in enumerate(paths):
        tree.insert(path, _TARGETS[i % len(_TARGETS)])
    return tree


def _leaf_count(tree) -> int:
    return sum(
        1 for node in tree._iter_nodes() if node.parent is not None and not node.children
    )


# ----------------------------------------------------------------------
# individual benchmarks
# ----------------------------------------------------------------------
def _bench_trie_best_target(quick: bool) -> BenchResult:
    rng = random.Random(1234)
    paths = _make_paths(rng, 256 if quick else 2048)
    tree = _build_tree(paths)
    available = set(_TARGETS[:8])
    probes = paths[:: max(1, len(paths) // 64)]
    state = {"i": 0}

    def op():
        i = state["i"]
        state["i"] = (i + 1) % len(probes)
        return tree.best_target(probes[i], available)

    return {
        "per_op_us": time_op(op, number=500 if quick else 2000, repeats=3) * 1e6,
        "alloc_peak_bytes_per_op": alloc_peak_bytes(op, number=30),
    }


def _bench_trie_insert_evict(quick: bool) -> BenchResult:
    rng = random.Random(99)
    paths = _make_paths(rng, 512 if quick else 2048)
    # Capacity fits only a fraction of the paths: inserts evict continuously.
    tree = _build_tree(paths[:128], max_tokens=128 * 60)
    state = {"i": 0}

    def op():
        i = state["i"]
        state["i"] = (i + 1) % len(paths)
        tree.insert(paths[i], _TARGETS[i % len(_TARGETS)])

    return {"per_op_us": time_op(op, number=300 if quick else 1000, repeats=3) * 1e6}


def _bench_trie_evict_scaling(quick: bool) -> BenchResult:
    sizes = (256, 1024) if quick else (512, 2048, 8192)
    points: List[Tuple[float, float]] = []
    result: BenchResult = {}
    for size in sizes:
        rng = random.Random(31 + size)
        paths = _make_paths(rng, size, n_shared=max(8, size // 64))
        best = float("inf")
        for _ in range(2 if quick else 3):
            tree = _build_tree(paths)
            leaves_before = _leaf_count(tree)
            tree.max_tokens = tree.total_tokens / 2
            import time as _time

            start = _time.perf_counter()
            tree._enforce_capacity()
            elapsed = _time.perf_counter() - start
            # Evicted leaves can be replaced by parents becoming leaves, so
            # the leaf delta undercounts; it is still a stable lower bound
            # and identical across implementations, which is all the slope
            # comparison needs.
            evicted = max(1, leaves_before - _leaf_count(tree))
            best = min(best, elapsed / evicted)
        points.append((float(size), best))
        result[f"per_evict_us_n{size}"] = best * 1e6
    result["loglog_slope"] = loglog_slope(points)
    return result


def _bench_trie_remove_target(quick: bool) -> BenchResult:
    rng = random.Random(7)
    paths = _make_paths(rng, 512 if quick else 2048)
    holder: Dict[str, object] = {}

    def setup():
        holder["tree"] = _build_tree(paths)

    def op():
        tree = holder["tree"]
        for target in _TARGETS:
            tree.remove_target(target)

    per_all = time_op(op, number=1, repeats=2 if quick else 3, setup=setup)
    return {"per_target_us": per_all / len(_TARGETS) * 1e6}


def _bench_radix_evict_scaling(quick: bool) -> BenchResult:
    from repro.replica.kv_cache import RadixCache

    sizes = (256, 1024) if quick else (512, 2048, 8192)
    points: List[Tuple[float, float]] = []
    result: BenchResult = {}
    for size in sizes:
        rng = random.Random(17 + size)
        paths = _make_paths(rng, size, n_shared=max(8, size // 64))
        best = float("inf")
        for _ in range(2 if quick else 3):
            cache = RadixCache()
            for i, path in enumerate(paths):
                cache.insert(path, now=float(i))
            import time as _time

            start = _time.perf_counter()
            cache.evict(cache.total_tokens, now=float(len(paths)))
            elapsed = _time.perf_counter() - start
            best = min(best, elapsed / size)
        points.append((float(size), best))
        result[f"per_leaf_us_n{size}"] = best * 1e6
    result["loglog_slope"] = loglog_slope(points)
    return result


def _bench_radix_admission(quick: bool) -> BenchResult:
    from repro.replica.kv_cache import RadixCache

    rng = random.Random(5)
    paths = _make_paths(rng, 256 if quick else 1024)
    cache = RadixCache(capacity_tokens=16_384)
    state = {"i": 0, "now": 0.0}

    def op():
        i = state["i"]
        state["i"] = (i + 1) % len(paths)
        state["now"] += 1.0
        now = state["now"]
        tokens = paths[i]
        match = cache.match_prefix(tokens, now=now)
        needed = len(tokens) - match.matched_tokens
        free = cache.capacity_tokens - cache.total_tokens
        if needed > free:
            cache.evict(int(needed - free), now=now)
        cache.insert(tokens, now=now)

    return {"per_op_us": time_op(op, number=300 if quick else 1000, repeats=3) * 1e6}


def _bench_fig8_wildchat_cell(quick: bool) -> BenchResult:
    from repro.experiments import REGISTRY, ExperimentConfig, SweepTask, run_sweep_task
    from repro.experiments.macro import default_macro_cluster
    from repro.experiments.workloads import MACRO_WORKLOAD_BUILDERS

    scale = 0.2 if quick else 0.5
    duration = 40.0 if quick else 120.0
    # Each seed is one independently generated (wildchat, skywalker) sweep
    # cell, timed via the sweep executor's own per-cell wall-clock channel
    # (RunMetrics.wall_clock_s, as on every run of a SweepResult), so the
    # perf report and a real multi-seed sweep measure the same thing.
    seeds = (0,) if quick else (0, 1)
    result: BenchResult = {}
    completed = 0
    for seed in seeds:
        workload = MACRO_WORKLOAD_BUILDERS["wildchat"](scale=scale, seed=seed)
        task = SweepTask(
            config=ExperimentConfig(
                system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
                cluster=default_macro_cluster(scale),
                duration_s=duration,
                seed=seed,
            ),
            workload=workload,
        )
        best = float("inf")
        for _ in range(2 if quick else 3):
            metrics = run_sweep_task(task)
            best = min(best, metrics.wall_clock_s)
            if seed == seeds[0]:
                completed = metrics.num_completed
        result[f"cell_seconds_seed{seed}"] = best
    result.update(
        {
            "wall_s": result[f"cell_seconds_seed{seeds[0]}"],
            "completed": float(completed),
            "scale": scale,
            "duration_s": duration,
        }
    )
    return result


def _bench_net_transit_sampling(quick: bool) -> BenchResult:
    from repro.net import NetConfig, build_routed_network
    from repro.network import default_topology
    from repro.sim import Environment

    def make_network():
        return build_routed_network(
            Environment(),
            NetConfig(topology="backbone"),
            default_topology(),
            jitter_fraction=0.05,
            seed=0,
        )

    pairs = [
        (src, dst)
        for src in ("us", "eu", "asia")
        for dst in ("us", "eu", "asia")
        if src != dst
    ]
    number = 300 if quick else 1000

    fast = make_network()

    def op_fast():
        for src, dst in pairs:
            fast.sample_one_way(src, dst)

    faulted = make_network()
    faulted.add_link_extra_latency("us", "wan/north-america", 0.01)

    def op_faulted():
        for src, dst in pairs:
            faulted.sample_one_way(src, dst)

    result: BenchResult = {
        "per_pair_us": time_op(op_fast, number=number, repeats=3) / len(pairs) * 1e6,
        "per_pair_faulted_us": time_op(op_faulted, number=number, repeats=3)
        / len(pairs)
        * 1e6,
        "alloc_peak_bytes_per_op": float(alloc_peak_bytes(op_fast, number=30)),
    }
    return result


_BENCHMARKS = {
    "trie_best_target": _bench_trie_best_target,
    "trie_insert_evict": _bench_trie_insert_evict,
    "trie_evict_scaling": _bench_trie_evict_scaling,
    "trie_remove_target": _bench_trie_remove_target,
    "radix_evict_scaling": _bench_radix_evict_scaling,
    "radix_admission": _bench_radix_admission,
    "fig8_wildchat_cell": _bench_fig8_wildchat_cell,
    "net_transit_sampling": _bench_net_transit_sampling,
}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_suite(
    quick: bool = False,
    out_path: Optional[str] = "BENCH_hotpaths.json",
    only: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run every hot-path microbenchmark and return (and emit) the results.

    With the default ``out_path`` the JSON lands in the current working
    directory — run from the repo root to refresh ``BENCH_hotpaths.json``.
    ``quick=True`` shrinks sizes/iterations for CI smoke use.  ``only``
    restricts the run to a subset of benchmark names.
    """
    names = list(only) if only else list(_BENCHMARKS)
    unknown = sorted(set(names) - set(_BENCHMARKS))
    if unknown:
        raise ValueError(f"unknown benchmark(s): {unknown}; known: {sorted(_BENCHMARKS)}")
    results: Dict[str, BenchResult] = {}
    for name in names:
        results[name] = _BENCHMARKS[name](quick)
    payload: Dict[str, object] = {
        "schema": SUITE_SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "benchmarks": results,
    }
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def write_report(
    before: Dict[str, object],
    after: Dict[str, object],
    after_quick: Dict[str, object],
    out_path: str = "BENCH_hotpaths.json",
) -> Dict[str, object]:
    """Combine before/after suite runs into the committed comparison report.

    ``before`` must come from the pre-optimization implementation (same
    machine, same suite), ``after`` from the optimized one; ``after_quick``
    is the ``quick=True`` run CI uses as its regression baseline.
    """
    comparison: Dict[str, Dict[str, float]] = {}
    for name, after_row in after["benchmarks"].items():
        before_row = before["benchmarks"].get(name)
        if not before_row:
            continue
        row: Dict[str, float] = {}
        for key, after_value in after_row.items():
            before_value = before_row.get(key)
            if (
                isinstance(before_value, (int, float))
                and isinstance(after_value, (int, float))
                and after_value > 0
                and ("us" in key or key in ("wall_s", "alloc_peak_bytes_per_op"))
            ):
                row[f"{key}_speedup"] = before_value / after_value
        comparison[name] = row
    payload = {
        "schema": REPORT_SCHEMA,
        "before": before,
        "after": after,
        "after_quick": after_quick,
        "comparison": comparison,
    }
    Path(out_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description="Run the hot-path benchmark suite."
    )
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_hotpaths.json", help="output JSON path ('' = stdout only)")
    parser.add_argument("--only", nargs="*", default=None, help="subset of benchmark names")
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick, out_path=args.out or None, only=args.only)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0
