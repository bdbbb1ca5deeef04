"""The repository benchmark: host cost and simulated outcomes, per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat-closed --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it builds and
runs the workload's simulations round-robin for about ``--seconds`` (each at
least once), and reports host times plus the ``sim_*`` outcomes pooled over
the run's simulations.  The host times are scaled to a fixed host speed: a
speed probe (``speed.py``) runs before the build, after it and after each of
the short slices of simulated time a run is driven in, and each interval's
host time is scaled by the probe's nominal time over the probe times either
side of it.  ``--trace 1`` alternates untraced and traced runs of the first simulation and reports the per-layer
metrics (see ``tracer.py``), after checking that tracing left every
simulated outcome unchanged.  Every run checks the outcomes (see
``outcomes.py``) and that repeated runs of one seed are identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the metrics, the workloads and their seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_perf = time.perf_counter

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_req", "events"),
    ("peak_rss_mb", "MB"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttft_p99_s", "s"),
    ("sim_tpot_p50_s", "s"),
    ("sim_throughput_tok_s", "tok/s"),
    ("sim_slo_share", "share"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events.core.probe", "count"),
    ("sim.events.core.serve", "count"),
    ("sim.events.replica", "count"),
    ("sim.events.network", "count"),
    ("sim.events.net", "count"),
    ("sim.events.cluster", "count"),
    ("sim.events.other", "count"),
    ("sim.self_s", "s"),
    ("core.probe_self_s", "s"),
    ("core.route_calls", "count"),
    ("core.route_us", "us"),
    ("core.trie_best_target_us", "us"),
    ("core.trie_match_length_us", "us"),
    ("core.trie_insert_us", "us"),
    ("core.self_s", "s"),
    ("core.forwarded_share", "share"),
    ("core.cross_region_share", "share"),
    ("core.lb_wait_p50_s", "s"),
    ("core.lb_wait_p99_s", "s"),
    ("replica.prefill_steps", "count"),
    ("replica.decode_steps", "count"),
    ("replica.decode_batch_mean", "requests"),
    ("replica.step_us", "us"),
    ("replica.self_s", "s"),
    ("replica.queue_wait_p50_s", "s"),
    ("replica.queue_wait_p99_s", "s"),
    ("replica.cache_hit_share", "share"),
    ("replica.busy_share", "share"),
    ("replica.evicted_tokens", "tokens"),
    ("network.messages", "count"),
    ("network.probes", "count"),
    ("network.dropped", "count"),
    ("network.self_s", "s"),
    ("network.ingress_p99_s", "s"),
    ("network.response_p99_s", "s"),
    ("net.messages", "count"),
    ("net.wire_mb", "MB"),
    ("net.self_s", "s"),
    ("cluster.dispatches", "count"),
    ("cluster.self_s", "s"),
    ("workloads.gen_s", "s"),
    ("metrics.collect_s", "s"),
    ("trace.overhead", "x"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one simulation
# ----------------------------------------------------------------------
def run_once(
    workload, seed: int, hooks, probe: Optional[Callable[[], float]] = None
) -> Tuple[object, dict, Dict[str, float]]:
    """Build and run one simulation; returns (stack, outcome, times).

    ``times`` holds the host seconds of the build (``raw_setup_s``) and of
    the run (``raw_wall_s``).  With a ``probe``, the probe also runs before
    the build and after every interval (the build and each simulated-time
    slice), outside the intervals, and ``times`` adds ``setup_s`` and
    ``wall_s``: each interval scaled by ``PROBE_NOMINAL_S`` over the mean of
    the probe times either side of it."""
    gc.collect()
    intervals: List[float] = []
    speeds: List[float] = []
    started = 0.0

    def lap() -> None:
        nonlocal started
        intervals.append(_perf() - started)
        if probe is not None:
            speeds.append(probe())
        started = _perf()

    if probe is not None:
        speeds.append(probe())
    started = _perf()
    stack = workload.build(seed, hooks)
    lap()
    hooks.drive(workload, stack, lap)
    times = {"raw_setup_s": intervals[0], "raw_wall_s": sum(intervals[1:])}
    if probe is not None:
        from speed import PROBE_NOMINAL_S

        scaled = [
            interval * 2.0 * PROBE_NOMINAL_S / (before + after)
            for interval, before, after in zip(intervals, speeds, speeds[1:])
        ]
        times["setup_s"], times["wall_s"] = scaled[0], sum(scaled[1:])
    env = stack.env
    outcome = stack.recorder.close(stack, lossless=workload.lossless)
    # Events scheduled, and processed (scheduled minus still queued).
    outcome["scheduled"] = env._eid
    outcome["events"] = env._eid - len(env._timeline)
    return stack, outcome, times


def fingerprint(outcome: dict) -> tuple:
    """Everything simulated about a run, for exact comparison."""
    return (
        tuple(sorted(outcome["counts"].items())),
        tuple((name, sum(values), len(values)) for name, values in sorted(outcome["samples"].items())),
        outcome["failed"],
        outcome["outstanding"],
        outcome["sim_seconds"],
        outcome["events"],
        outcome["scheduled"],
    )


def pool(outcomes: List[dict]) -> dict:
    """Merge the outcomes of several simulations into one."""
    counts: Dict[str, int] = {}
    samples: Dict[str, List[float]] = {}
    for outcome in outcomes:
        for name, value in outcome["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, values in outcome["samples"].items():
            samples.setdefault(name, []).extend(values)
    return {
        "counts": counts,
        "samples": samples,
        "failed": sum(o["failed"] for o in outcomes),
        "events": sum(o["events"] for o in outcomes),
        "sim_seconds": sum(o["sim_seconds"] for o in outcomes),
    }


def sim_metrics(outcome: dict) -> Dict[str, float]:
    """The simulated end-to-end metrics of a (pooled) outcome."""
    from repro.metrics import percentile

    counts, samples = outcome["counts"], outcome["samples"]
    judged = counts["slo_hits"] + counts["slo_misses"]
    return {
        "events_per_req": outcome["events"] / counts["completed"],
        "sim_ttft_p50_s": percentile(samples["ttft"], 50),
        "sim_ttft_p99_s": percentile(samples["ttft"], 99),
        "sim_tpot_p50_s": percentile(samples["tpot"], 50),
        "sim_throughput_tok_s": counts["served_tokens"] / outcome["sim_seconds"],
        "sim_slo_share": counts["slo_hits"] / judged,
    }


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure_end_to_end(workload, seed: int, seconds: float, log) -> dict:
    from speed import probe
    from workloads import PlainHooks

    seeds = workload.sim_seeds(seed)
    deadline = _perf() + seconds
    setups: Dict[int, List[float]] = {s: [] for s in seeds}
    walls: Dict[int, List[float]] = {s: [] for s in seeds}
    first: Dict[int, dict] = {}
    problems: List[str] = []
    runs = 0
    rep_s: List[float] = []
    # Every simulation runs once; more rounds run while the next one is
    # expected to end before the deadline.
    while runs < len(seeds) or _perf() + statistics.median(rep_s) < deadline:
        sim_seed = seeds[runs % len(seeds)]
        rep_start = _perf()
        stack, outcome, times = run_once(workload, sim_seed, PlainHooks, probe)
        del stack
        rep_s.append(_perf() - rep_start)
        runs += 1
        setups[sim_seed].append(times["setup_s"])
        walls[sim_seed].append(times["wall_s"])
        if sim_seed not in first:
            first[sim_seed] = outcome
            problems.extend(outcome["problems"])
        elif fingerprint(outcome) != fingerprint(first[sim_seed]):
            problems.append(f"workload seed {sim_seed}: a repeated run simulated differently")
        log(
            f"run {runs}: workload seed {sim_seed} setup {times['setup_s']:.3f}s "
            f"(host {times['raw_setup_s']:.3f}s) wall {times['wall_s']:.3f}s "
            f"(host {times['raw_wall_s']:.3f}s) "
            f"issued {outcome['counts']['issued']} completed {outcome['counts']['completed']} "
            f"events {outcome['events']}"
        )
    pooled = pool([first[s] for s in seeds])
    metrics = {
        # Per simulation: the mean over seeds of each seed's median.
        "wall_s": statistics.fmean(statistics.median(walls[s]) for s in seeds),
        "setup_s": statistics.fmean(statistics.median(setups[s]) for s in seeds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(sim_metrics(pooled))
    counts = pooled["counts"]
    failed = pooled["failed"] + counts["violations"]
    log(
        f"simulations: workload seeds {seeds}, {runs} runs "
        f"(base --seed 0, held-out --seed {workload.held_out_seed})"
    )
    log(f"failed_share {failed / counts['issued']:.6f} ({failed} of {counts['issued']} issued)")
    log(
        f"{counts['readmitted']} of {counts['completed']} completions were preempted "
        "after their first token and re-admitted"
    )
    return {
        "correct": not problems and counts["violations"] == 0 and failed == 0,
        "attempted": counts["issued"],
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer, stack, outcome: dict) -> Dict[str, float]:
    from repro.metrics import percentile

    samples, counts = outcome["samples"], outcome["counts"]
    events = tracer.events
    network = stack.network
    replicas = stack.deployment.replicas
    batch_steps = tracer.counts["decode_steps"]
    busy = sum(replica.stats.busy_time for replica in replicas)
    metrics = {
        "sim.events": float(sum(events.values())),
        "sim.self_s": tracer.layer_self_s("sim"),
        "core.probe_self_s": tracer.layer_self_s("core.probe"),
        "core.route_calls": float(tracer.calls["route"]),
        "core.route_us": tracer.mean_us("route"),
        "core.trie_best_target_us": tracer.mean_us("trie_best_target"),
        "core.trie_match_length_us": tracer.mean_us("trie_match_length"),
        "core.trie_insert_us": tracer.mean_us("trie_insert"),
        "core.self_s": tracer.layer_self_s("core"),
        "core.forwarded_share": counts["forwarded"] / counts["completed"],
        "core.cross_region_share": counts["cross_region"] / counts["completed"],
        "core.lb_wait_p50_s": percentile(samples["lb_wait"], 50),
        "core.lb_wait_p99_s": percentile(samples["lb_wait"], 99),
        "replica.prefill_steps": float(tracer.counts["prefill_steps"]),
        "replica.decode_steps": float(batch_steps),
        "replica.decode_batch_mean": (
            tracer.counts["decode_batch_total"] / batch_steps if batch_steps else 0.0
        ),
        "replica.step_us": tracer.mean_us("step"),
        "replica.self_s": tracer.layer_self_s("replica"),
        "replica.queue_wait_p50_s": percentile(samples["queue_wait"], 50),
        "replica.queue_wait_p99_s": percentile(samples["queue_wait"], 99),
        "replica.cache_hit_share": counts["cached_tokens"] / counts["prompt_tokens"],
        "replica.busy_share": busy / (len(replicas) * outcome["sim_seconds"]),
        "replica.evicted_tokens": float(tracer.counts["evicted_tokens"]),
        "network.messages": float(network.messages_sent),
        "network.probes": float(network.probe_count),
        "network.dropped": float(network.dropped_messages),
        "network.self_s": tracer.layer_self_s("network"),
        "network.ingress_p99_s": percentile(samples["ingress"], 99),
        "network.response_p99_s": percentile(samples["response"], 99),
        "net.messages": float(tracer.processes["net"]),
        "net.wire_mb": (
            getattr(network, "wire_bytes_sent", 0.0) + getattr(network, "response_bytes", 0.0)
        )
        / 1e6,
        "net.self_s": tracer.layer_self_s("net"),
        "cluster.dispatches": float(tracer.calls["dispatch"]),
        "cluster.self_s": tracer.layer_self_s("cluster"),
        "workloads.gen_s": tracer.layer_self_s("workloads"),
    }
    for origin in ("core.probe", "core.serve", "replica", "network", "net", "cluster", "other"):
        metrics[f"sim.events.{origin}"] = float(events[origin])
    metrics["metrics.collect_s"] = tracer.layer_self_s("metrics")
    return metrics


def measure_layers(workload, seed: int, seconds: float, log) -> dict:
    from tracer import traced
    from workloads import PlainHooks

    sim_seed = workload.sim_seeds(seed)[0]
    deadline = _perf() + seconds
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    per_run: List[Dict[str, float]] = []
    problems: List[str] = []
    reference = None
    pair_s: List[float] = []
    while not pair_s or _perf() + statistics.median(pair_s) < deadline:
        pair_start = _perf()
        stack, outcome, times = run_once(workload, sim_seed, PlainHooks)
        del stack
        plain_walls.append(times["raw_wall_s"])
        if reference is None:
            reference = outcome
            problems.extend(outcome["problems"])
        elif fingerprint(outcome) != fingerprint(reference):
            problems.append("a repeated untraced run simulated differently")
        # Collect the untraced run's garbage first: finalizing its generators
        # can schedule events (into its own, finished environment), and the
        # tracer must not count those.
        gc.collect()
        with traced() as tracer:
            stack, traced_outcome, times = run_once(workload, sim_seed, tracer)
        wall_s = times["raw_wall_s"]
        traced_walls.append(wall_s)
        tracer.enter("metrics")
        simulated = sim_metrics(traced_outcome)
        tracer.exit()
        metrics = layer_metrics(tracer, stack, traced_outcome)
        del stack
        per_run.append(metrics)
        # Tracing must not perturb the simulation in any way.
        if fingerprint(traced_outcome) != fingerprint(reference):
            problems.append("the traced run simulated differently from the untraced run")
        if simulated != sim_metrics(reference):
            problems.append("tracing changed a sim_* metric or events_per_req")
        if metrics["sim.events"] != reference["scheduled"]:
            problems.append(
                f"traced sim.events {metrics['sim.events']:.0f} != "
                f"untraced events scheduled {reference['scheduled']}"
            )
        pair_s.append(_perf() - pair_start)
        log(f"untraced wall {plain_walls[-1]:.3f}s traced wall {wall_s:.3f}s")
    metrics = {}
    for name in per_run[0]:
        values = [run[name] for run in per_run]
        timed = name.endswith(("_s", "_us"))
        if not timed and any(v != values[0] for v in values):
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values) if timed else values[0]
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    counts = reference["counts"]
    failed = reference["failed"] + counts["violations"]
    log(f"per-layer metrics of workload seed {sim_seed}, {len(per_run)} traced runs")
    return {
        "correct": not problems and failed == 0,
        "attempted": counts["issued"],
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def log(line: str) -> None:
        print(f"[{workload.name}] {line}", flush=True)

    if args.trace:
        result = measure_layers(workload, args.seed, args.seconds, log)
        declared = PER_LAYER
    else:
        result = measure_end_to_end(workload, args.seed, args.seconds, log)
        declared = END_TO_END
    for problem in result.pop("problems"):
        log(f"CHECK FAILED: {problem}")
    values = result["metrics"]
    for name, unit in declared:
        log(f"{name:<28} {values[name]:>16.6f} {unit}")
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
