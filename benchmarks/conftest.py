"""Shared configuration for the benchmark harness.

Every module in this directory regenerates one table/figure of the paper's
evaluation.  Results are printed and also written to ``benchmarks/results/``
so a full ``pytest benchmarks/ --benchmark-only`` run leaves behind the
complete set of reproduced rows/series.

Four environment variables control fidelity:

* ``REPRO_BENCH_SCALE``     -- client/replica scale factor (default 0.5; the
  paper's full scale is 1.0).
* ``REPRO_BENCH_DURATION``  -- simulated seconds per run (default 120).
* ``REPRO_BENCH_WORKERS``   -- worker processes per sweep (default 0 = auto:
  one per core, capped at 4).  Sweep results are bit-identical for any
  worker count, so this only trades wall-clock; full-fidelity Fig. 8
  reproductions (scale 1.0) are where it pays off.
* ``REPRO_BENCH_SEEDS``     -- number of seeds per sweep cell (default 1).
  With N > 1 every figure repeats its sweep under seeds ``base .. base+N-1``
  (fresh workload per seed) and the recorded artifacts gain a mean/95%-CI
  aggregate section.  The default of 1 keeps the committed artifacts
  bit-identical to the historical single-seed runs.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
#: Fresh perf-smoke reports land here, git-ignored: their timings change on
#: every run, so CI uploads them as an artifact instead of the tree
#: tracking them.
QUICK_RESULTS_DIR = RESULTS_DIR / "quick"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def bench_duration() -> float:
    return float(os.environ.get("REPRO_BENCH_DURATION", "120"))


def bench_workers() -> int:
    value = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
    if value <= 0:
        return max(1, min(4, os.cpu_count() or 1))
    return value


def bench_seeds(base: int) -> list:
    """The seed list for one figure's sweep: ``base`` is the figure's
    historical seed, so ``REPRO_BENCH_SEEDS=1`` (the default) reproduces
    the committed single-seed artifacts bit-identically."""
    count = int(os.environ.get("REPRO_BENCH_SEEDS", "1"))
    return [base + i for i in range(max(1, count))]


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def quick_results_dir() -> Path:
    QUICK_RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return QUICK_RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Write a named result artefact and echo it to stdout."""

    def _record(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text)
        print(f"\n===== {name} =====")
        print(text)
        return path

    return _record
