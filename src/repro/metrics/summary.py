"""Distribution summaries used throughout the evaluation.

The paper reports box-plot statistics for TTFT and end-to-end latency: the
median, the 25th/75th percentile box, 10th/90th percentile whiskers, and the
mean (Fig. 8's inverted triangle).  :class:`LatencySummary` captures exactly
those, so a benchmark row can be compared against the paper's plot directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

__all__ = ["LatencySummary", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("cannot take the percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be between 0 and 100")
    return _interpolate(sorted(values), q)


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of an already sorted, non-empty sequence."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass(frozen=True)
class LatencySummary:
    """Box-plot style summary of a latency (or any nonnegative) distribution."""

    count: int
    mean: float
    p10: float
    p25: float
    p50: float
    p75: float
    p90: float
    p99: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencySummary":
        """Summarise ``values`` (mean in the given order), skipping missing
        ones: ``None``, or NaN in a tracker column."""
        data = [float(v) for v in values if v is not None and v == v]
        if not data:
            return cls.empty()
        # Order-dependent statistics first, then sort the one list in place.
        mean, minimum, maximum = sum(data) / len(data), min(data), max(data)
        data.sort()
        return cls(
            len(data),
            mean,
            *(_interpolate(data, q) for q in (10, 25, 50, 75, 90, 99)),
            minimum,
            maximum,
        )

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p10": self.p10,
            "p25": self.p25,
            "p50": self.p50,
            "p75": self.p75,
            "p90": self.p90,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __str__(self) -> str:
        if self.count == 0:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean:.3f} p50={self.p50:.3f} "
            f"p90={self.p90:.3f} p99={self.p99:.3f}"
        )
