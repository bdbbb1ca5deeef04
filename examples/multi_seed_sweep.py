#!/usr/bin/env python3
"""Multi-seed quickstart: turn a sweep into mean/95%-CI statements.

A single simulation run is a point estimate -- rerun it with another seed
and every number moves.  This example runs the same two-system sweep under
several seeds (fanned across worker processes like any other sweep), then
prints the per-seed rows and the aggregate table: mean, and the 95%
confidence interval computed with the Student-t distribution (the right
small-sample choice for a handful of seeds).

Run with::

    python examples/multi_seed_sweep.py
"""

from __future__ import annotations

from repro.experiments import REGISTRY, ClusterConfig, build_arena_workload, run_sweep


def main() -> None:
    # 1. One workload, built once and replayed (fresh request state) across
    #    every (system, seed) cell.
    workload = build_arena_workload(scale=0.1, seed=0)

    # 2. The sweep: two systems x three seeds.  seeds=[...] is the only
    #    change from a single-seed sweep (the default is seeds=(0,)).
    sweep = run_sweep(
        [REGISTRY.spec("skywalker"), REGISTRY.spec("least-load")],
        [workload],
        cluster=ClusterConfig(replicas_per_region={"us": 2, "eu": 2, "asia": 2}),
        duration_s=60.0,
        seeds=[0, 1, 2],
        workers=2,
    )

    # 3. Per-seed detail: every run is available individually...
    print("Per-seed runs")
    print("=============")
    for system in sweep.systems(workload.name):
        for seed, metrics in sweep.runs_for(workload.name, system).items():
            print(f"  seed={seed}  " + metrics.format_row())

    # 4. ...and the statistical layer on top: mean ± 95% CI per metric.
    print()
    print(f"Aggregate over seeds {sweep.seeds()} (mean±95% CI)")
    print("==================================================")
    print(sweep.report().format_table())

    skywalker = sweep.aggregate(workload.name, "skywalker")
    tput = skywalker.stat("throughput_tokens_per_s")
    print()
    print(
        f"skywalker throughput: {tput.mean:,.0f} tokens/s "
        f"(95% CI [{tput.ci_low:,.0f}, {tput.ci_high:,.0f}], "
        f"stdev {tput.stdev:,.0f}, n={tput.n})"
    )
    # The full aggregate also serialises to JSON for committed artifacts:
    # sweep.report().to_json() -> {"schema": "repro-sweep-report/1", "cells": [...]}.


if __name__ == "__main__":
    main()
