"""Multi-seed aggregation: mean, stdev and 95% confidence intervals.

A single simulation run is a point estimate; the paper's claims (Fig. 8
throughput gains, Fig. 9 pushing ablations, Fig. 10 region-local latency)
only become *statistical* statements when every (workload, system) cell is
repeated across seeds.  This module turns the per-seed
:class:`~repro.metrics.collector.RunMetrics` of such a repetition into

* :class:`Statistic` -- mean, sample standard deviation and the half-width
  of the 95% confidence interval of one scalar metric,
* :class:`AggregateMetrics` -- all aggregated scalars of one
  (workload, system) cell, and
* :class:`SweepReport` -- a text-table / JSON report over every cell of a
  sweep.

Everything is stdlib-only.  The confidence interval uses the Student-t
distribution (the right choice for the small seed counts -- 3 to 10 --
these sweeps realistically run): ``ci95 = t_{0.975, n-1} * stdev /
sqrt(n)``.  Critical values come from an embedded table
(:func:`student_t_critical`); between tabulated degrees of freedom the
next *lower* entry is used, which rounds the interval conservatively wide.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (collector imports nothing from here)
    from .collector import RunMetrics

__all__ = [
    "AGGREGATED_METRICS",
    "RESILIENCE_AGGREGATED_METRICS",
    "AggregateMetrics",
    "Statistic",
    "SweepReport",
    "paired_difference",
    "student_t_critical",
]

#: Two-sided 95% Student-t critical values, ``t_{0.975, df}``.  df -> value.
_T_TABLE_95: Tuple[Tuple[int, float], ...] = (
    (1, 12.706), (2, 4.303), (3, 3.182), (4, 2.776), (5, 2.571),
    (6, 2.447), (7, 2.365), (8, 2.306), (9, 2.262), (10, 2.228),
    (11, 2.201), (12, 2.179), (13, 2.160), (14, 2.145), (15, 2.131),
    (16, 2.120), (17, 2.110), (18, 2.101), (19, 2.093), (20, 2.086),
    (21, 2.080), (22, 2.074), (23, 2.069), (24, 2.064), (25, 2.060),
    (26, 2.056), (27, 2.052), (28, 2.048), (29, 2.045), (30, 2.042),
    (40, 2.021), (60, 2.000), (120, 1.980),
)


def student_t_critical(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom.

    Exact at tabulated df; elsewhere the next *lower* tabulated df is used
    (its critical value is larger, so derived intervals err on the wide
    side) -- including beyond df=120, where 1.980 applies rather than the
    normal quantile 1.960, again the conservative choice.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    value = _T_TABLE_95[0][1]
    for table_df, critical in _T_TABLE_95:
        if table_df > df:
            break
        value = critical
    return value


@dataclass(frozen=True)
class Statistic:
    """Mean / spread / confidence summary of one scalar across seeds.

    ``stdev`` and ``ci95`` are ``None`` when fewer than two samples exist
    (a sample standard deviation is undefined for n=1) -- callers can rely
    on "is this None" to distinguish a real interval from a degenerate one.
    ``ci95`` is the *half-width*: the interval is ``mean +/- ci95``.
    """

    n: int
    mean: float
    stdev: Optional[float]
    ci95: Optional[float]

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Statistic":
        values = [float(v) for v in samples]
        if not values:
            raise ValueError("cannot aggregate an empty sample set")
        mean = sum(values) / len(values)
        if len(values) < 2:
            return cls(n=1, mean=mean, stdev=None, ci95=None)
        stdev = statistics.stdev(values)
        half_width = student_t_critical(len(values) - 1) * stdev / math.sqrt(len(values))
        return cls(n=len(values), mean=mean, stdev=stdev, ci95=half_width)

    @classmethod
    def paired_diff(cls, a: Sequence[float], b: Sequence[float]) -> "Statistic":
        """Statistic of the per-index differences ``a[i] - b[i]``.

        The right interval for same-seed system-vs-system comparisons:
        both systems replay identical traffic under each seed, so pairing
        by seed cancels the between-seed workload variance that would
        inflate an unpaired interval.  A claim like "SkyWalker beats the
        gateway" holds at the 95% level when ``ci_low > 0``.
        """
        left = [float(v) for v in a]
        right = [float(v) for v in b]
        if len(left) != len(right):
            raise ValueError(
                f"paired samples must have equal lengths, got {len(left)} and {len(right)}"
            )
        if not left:
            raise ValueError("cannot aggregate an empty sample set")
        return cls.from_samples([x - y for x, y in zip(left, right)])

    @property
    def ci_low(self) -> Optional[float]:
        return None if self.ci95 is None else self.mean - self.ci95

    @property
    def ci_high(self) -> Optional[float]:
        return None if self.ci95 is None else self.mean + self.ci95

    def to_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "mean": self.mean,
            "stdev": self.stdev,
            "ci95": self.ci95,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }

    def __str__(self) -> str:
        if self.ci95 is None:
            return f"{self.mean:.3f}"
        return f"{self.mean:.3f}±{self.ci95:.3f}"


def _latency_field(summary_name: str, stat_name: str) -> Callable[["RunMetrics"], float]:
    def extract(metrics: "RunMetrics") -> float:
        return getattr(getattr(metrics, summary_name), stat_name)

    return extract


def _scalar_field(name: str) -> Callable[["RunMetrics"], float]:
    def extract(metrics: "RunMetrics") -> float:
        return float(getattr(metrics, name))

    return extract


#: The scalar metrics aggregated across seeds, in report order.  Latency
#: distributions contribute their headline percentiles (aggregating a full
#: box plot across seeds would hide which percentile the CI belongs to).
AGGREGATED_METRICS: Dict[str, Callable[["RunMetrics"], float]] = {
    "throughput_tokens_per_s": _scalar_field("throughput_tokens_per_s"),
    "output_tokens_per_s": _scalar_field("output_tokens_per_s"),
    "requests_per_s": _scalar_field("requests_per_s"),
    "num_completed": _scalar_field("num_completed"),
    "cache_hit_rate": _scalar_field("cache_hit_rate"),
    "cross_region_fraction": _scalar_field("cross_region_fraction"),
    "forwarded_fraction": _scalar_field("forwarded_fraction"),
    "replica_load_imbalance": _scalar_field("replica_load_imbalance"),
    "ttft_mean": _latency_field("ttft", "mean"),
    "ttft_p50": _latency_field("ttft", "p50"),
    "ttft_p90": _latency_field("ttft", "p90"),
    "e2e_p50": _latency_field("e2e_latency", "p50"),
    "e2e_p90": _latency_field("e2e_latency", "p90"),
    "queueing_p50": _latency_field("queueing_delay", "p50"),
    "queueing_p90": _latency_field("queueing_delay", "p90"),
}


def _resilience_field(name: str) -> Callable[["RunMetrics"], Optional[float]]:
    def extract(metrics: "RunMetrics") -> Optional[float]:
        resilience = metrics.resilience
        if resilience is None:
            return None
        value = getattr(resilience, name)
        return None if value is None else float(value)

    return extract


#: Resilience scalars aggregated across seeds *when present on every run of
#: the cell*: fault-free runs have no resilience record, and e.g. a
#: degraded-mode TTFT is undefined for a seed where no request was sent
#: while degraded.  Such cells simply omit the stat -- existing reports
#: over fault-free sweeps are unchanged.
RESILIENCE_AGGREGATED_METRICS: Dict[str, Callable[["RunMetrics"], Optional[float]]] = {
    "resilience_mean_ttr_s": _resilience_field("mean_time_to_recovery_s"),
    "resilience_max_ttr_s": _resilience_field("max_time_to_recovery_s"),
    "resilience_goodput_during_outage_tokens_per_s": _resilience_field(
        "goodput_during_outage_tokens_per_s"
    ),
    "resilience_ttft_p90_during_s": _resilience_field("ttft_p90_during_s"),
    "resilience_goodput_degraded_tokens_per_s": _resilience_field(
        "goodput_while_degraded_tokens_per_s"
    ),
    "resilience_ttft_p90_degraded_s": _resilience_field("ttft_p90_degraded_s"),
    "resilience_failed_requests": _resilience_field("failed_requests"),
}


@dataclass(frozen=True)
class AggregateMetrics:
    """Mean/stdev/95% CI of every scalar metric of one (workload, system)
    cell, aggregated over its per-seed :class:`RunMetrics`."""

    system: str
    workload: str
    seeds: Tuple[int, ...]
    stats: Dict[str, Statistic]

    @classmethod
    def from_runs(
        cls, runs: Sequence["RunMetrics"], *, seeds: Optional[Sequence[int]] = None
    ) -> "AggregateMetrics":
        """Aggregate one cell's per-seed runs.

        Every run must describe the same (workload, system) cell.  ``seeds``
        defaults to the ``seed`` recorded on each run by ``run_experiment``
        (empty when any run records none).
        """
        if not runs:
            raise ValueError("cannot aggregate an empty run list")
        cells = {(m.workload, m.system) for m in runs}
        if len(cells) > 1:
            raise ValueError(
                f"runs span multiple (workload, system) cells: {sorted(cells)}; "
                "aggregate one cell at a time"
            )
        if seeds is None:
            recorded = [m.seed for m in runs]
            seeds = tuple(recorded) if all(s is not None for s in recorded) else ()
        elif len(tuple(seeds)) != len(runs):
            raise ValueError("seeds and runs must have matching lengths")
        stats = {
            name: Statistic.from_samples([extract(m) for m in runs])
            for name, extract in AGGREGATED_METRICS.items()
        }
        for name, extract in RESILIENCE_AGGREGATED_METRICS.items():
            samples = [extract(m) for m in runs]
            if all(value is not None for value in samples):
                stats[name] = Statistic.from_samples(samples)
        return cls(
            system=runs[0].system,
            workload=runs[0].workload,
            seeds=tuple(seeds),
            stats=stats,
        )

    @property
    def num_seeds(self) -> int:
        return next(iter(self.stats.values())).n if self.stats else 0

    def stat(self, metric: str) -> Statistic:
        return self.stats[metric]

    def mean(self, metric: str) -> float:
        return self.stats[metric].mean

    def ci95(self, metric: str) -> Optional[float]:
        return self.stats[metric].ci95

    def to_dict(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "workload": self.workload,
            "seeds": list(self.seeds),
            "num_seeds": self.num_seeds,
            "metrics": {name: stat.to_dict() for name, stat in self.stats.items()},
        }

    def format_row(self) -> str:
        """One human-readable aggregate row, mirroring
        :meth:`RunMetrics.format_row` with ``mean±ci95`` entries."""
        tput = self.stats["throughput_tokens_per_s"]
        ttft = self.stats["ttft_p50"]
        hit = self.stats["cache_hit_rate"]
        ci = (lambda s: s.ci95 if s.ci95 is not None else 0.0)
        return (
            f"{self.system:<16} {self.workload:<12} "
            f"tput={tput.mean:8.1f}±{ci(tput):6.1f} tok/s  "
            f"ttft p50={ttft.mean:6.3f}±{ci(ttft):5.3f}s  "
            f"hit={hit.mean * 100:5.1f}±{ci(hit) * 100:4.1f}%  "
            f"seeds={self.num_seeds}"
        )


def paired_difference(
    runs_a: Dict[int, "RunMetrics"],
    runs_b: Dict[int, "RunMetrics"],
    metric: str = "throughput_tokens_per_s",
) -> Statistic:
    """Per-seed paired difference of one scalar metric between two cells.

    ``runs_a`` / ``runs_b`` are seed -> :class:`RunMetrics` maps of two
    systems from the *same* sweep (e.g. ``SweepResult.runs_for(...)``),
    so each seed pairs two runs that saw identical traffic.  Returns the
    :class:`Statistic` of ``metric(a) - metric(b)`` across seeds; the
    speedup claim "a beats b" holds at the 95% level when ``ci_low > 0``.
    """
    if metric in AGGREGATED_METRICS:
        extract = AGGREGATED_METRICS[metric]
    elif metric in RESILIENCE_AGGREGATED_METRICS:
        extract = RESILIENCE_AGGREGATED_METRICS[metric]
    else:
        raise ValueError(
            f"unknown metric {metric!r}; aggregated metrics: "
            f"{tuple(AGGREGATED_METRICS) + tuple(RESILIENCE_AGGREGATED_METRICS)}"
        )
    if set(runs_a) != set(runs_b):
        raise ValueError(
            f"paired runs must cover the same seeds; got {sorted(runs_a)} "
            f"vs {sorted(runs_b)}"
        )
    if not runs_a:
        raise ValueError("cannot pair empty run sets")
    seeds = list(runs_a)
    samples_a = [extract(runs_a[seed]) for seed in seeds]
    samples_b = [extract(runs_b[seed]) for seed in seeds]
    missing = [s for s, a, b in zip(seeds, samples_a, samples_b) if a is None or b is None]
    if missing:
        raise ValueError(
            f"metric {metric!r} is undefined for seeds {sorted(missing)} "
            "(no resilience record, or an empty phase)"
        )
    return Statistic.paired_diff(samples_a, samples_b)


@dataclass
class SweepReport:
    """Report over every aggregated cell of a multi-seed sweep.

    Built by :meth:`SweepResult.report`; offers the two output shapes
    benchmarks need: an aligned text table for logs and a JSON document
    for committed artifacts.
    """

    cells: List[AggregateMetrics] = field(default_factory=list)

    SCHEMA = "repro-sweep-report/1"

    def add(self, aggregate: AggregateMetrics) -> None:
        self.cells.append(aggregate)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.SCHEMA,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format_table(self) -> str:
        """Aligned text table: one row per (workload, system) cell.

        A cross-seed time-to-recovery column appears when any cell carries
        the ``resilience_mean_ttr_s`` aggregate (faulted multi-seed
        sweeps); fault-free sweeps keep the historical columns exactly.
        """
        with_ttr = any("resilience_mean_ttr_s" in cell.stats for cell in self.cells)
        header = (
            f"  {'workload':<16}{'system':<18}{'seeds':>6}"
            f"{'tput tok/s':>18}{'ttft p50 (s)':>16}{'hit rate':>14}"
        )
        if with_ttr:
            header += f"{'ttr (s)':>16}"
        lines = [header]

        def fmt(stat: Statistic, scale: float = 1.0, digits: int = 1) -> str:
            if stat.ci95 is None:
                return f"{stat.mean * scale:.{digits}f}"
            return f"{stat.mean * scale:.{digits}f}±{stat.ci95 * scale:.{digits}f}"

        for cell in self.cells:
            row = (
                f"  {cell.workload:<16}{cell.system:<18}{cell.num_seeds:>6}"
                f"{fmt(cell.stat('throughput_tokens_per_s')):>18}"
                f"{fmt(cell.stat('ttft_p50'), digits=3):>16}"
                f"{fmt(cell.stat('cache_hit_rate'), scale=100.0):>13}%"
            )
            if with_ttr:
                ttr = cell.stats.get("resilience_mean_ttr_s")
                row += f"{fmt(ttr, digits=2):>16}" if ttr is not None else f"{'-':>16}"
            lines.append(row)
        return "\n".join(lines)
