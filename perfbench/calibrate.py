"""Calibrate the tracer's event attribution and the benchmark's stack.

Runs the Fig. 8 wildchat x skywalker cell (scale 0.5, 120 s, seed 0) twice:

1. through ``repro.experiments.run_experiment`` with the tracer installed,
   and checks the events it scheduled and their split by originating
   generator against the profile recorded when the benchmark was defined
   (57,919 events: availability probes 37.3%, the monitor loop 31.1%,
   replica serving loops 26.5%, network deliveries 3.3%);
2. through the benchmark's own stack assembly (``workloads.py``), untraced,
   and checks that it schedules the same events and simulates the same
   per-request TTFTs as ``run_experiment``.

Usage (from the repository root)::

    python3 perfbench/calibrate.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.experiments import (  # noqa: E402
    REGISTRY,
    ExperimentConfig,
    build_wildchat_workload,
    run_experiment,
)
from repro.experiments.macro import default_macro_cluster  # noqa: E402
from repro.network import Network, default_topology  # noqa: E402
from repro.sim import Environment  # noqa: E402

from tracer import traced  # noqa: E402
from workloads import NETWORK_JITTER, _assemble, _closed_loop_clients  # noqa: E402

SCALE, DURATION_S, SEED = 0.5, 120.0, 0
EXPECTED_EVENTS = 57_919
#: Percent of scheduled events by originating generator, to 0.1%.
EXPECTED_SHARES = {
    "repro.core.availability.AvailabilityMonitor._probe_balancer": 37.3,
    "repro.core.availability.AvailabilityMonitor._run": 31.1,
    "repro.replica.server.ReplicaServer._run": 26.5,
    "repro.network.link.Network._deliver_later": 3.3,
}


def main() -> int:
    failures = []
    cluster = default_macro_cluster(SCALE)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker"), cluster=cluster, duration_s=DURATION_S, seed=SEED
    )
    with traced() as tracer:
        result = run_experiment(config, build_wildchat_workload(scale=SCALE, seed=SEED))
    total = sum(tracer.events.values())
    print(f"events scheduled: {total} (expected {EXPECTED_EVENTS})")
    if total != EXPECTED_EVENTS or result.env._eid != EXPECTED_EVENTS:
        failures.append("event count")
    print("share by originating generator:")
    for name, count in tracer.events_by_generator.most_common():
        share = 100.0 * count / total
        expected = EXPECTED_SHARES.get(name)
        note = "" if expected is None else f"  (expected {expected:.1f}%)"
        print(f"  {share:5.1f}%  {count:7d}  {name}{note}")
        if expected is not None and round(share, 1) != expected:
            failures.append(f"share of {name}")
    print("share by layer:")
    for origin, count in tracer.events.most_common():
        print(f"  {100.0 * count / total:5.1f}%  {count:7d}  {origin}")

    # The benchmark's own assembly must simulate exactly what run_experiment does.
    spec = build_wildchat_workload(scale=SCALE, seed=SEED)
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=NETWORK_JITTER, seed=SEED)
    stack = _assemble(
        env,
        network,
        cluster.replicas_per_region,
        REGISTRY.spec("skywalker"),
        client_regions=list(spec.clients_per_region),
        hash_key=spec.hash_key,
    )
    _closed_loop_clients(stack, spec)
    env.run(until=DURATION_S)
    ours = [r.ttft for r in stack.tracker.completed]
    theirs = [r.ttft for r in result.tracker.completed]
    print(
        f"benchmark assembly: {env._eid} events, {len(ours)} completions "
        f"(run_experiment: {result.env._eid} events, {len(theirs)} completions)"
    )
    if env._eid != result.env._eid or ours != theirs:
        failures.append("benchmark assembly differs from run_experiment")

    for failure in failures:
        print(f"CALIBRATION FAILED: {failure}")
    print("calibration ok" if not failures else "calibration failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
