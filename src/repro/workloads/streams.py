"""Lazy open-loop request streams.

:class:`DiurnalRequestStream` is a picklable, re-iterable description of one
region's day-long ``(arrival_time, Request)`` trace, sampled from a
:class:`~repro.workloads.diurnal.DiurnalPattern`.  Iterating it regenerates
the requests from its fields and seed, so a million-request day drives the
open-loop trace-replay clients (and the engine macrobench) without ever
holding the day's requests in memory.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterator, Tuple

from .diurnal import DiurnalPattern, _poisson
from .lengths import LengthSampler, WorkloadLengths, WILDCHAT_LIKE
from .request import Request
from .tokens import TokenFactory

__all__ = ["DiurnalRequestStream"]


@dataclass(frozen=True)
class DiurnalRequestStream:
    """Lazy day-long ``(arrival_time_s, Request)`` stream for one region.

    Hourly request counts follow ``pattern`` with Poisson noise -- the same
    sampling as :func:`~repro.workloads.diurnal.generate_daily_trace` --
    and arrivals are uniform within each hour.  Memory is bounded by the
    *busiest hour's* arrival list (the times must be sorted), never by the
    full-day request count, which is what lets a million-request day drive
    the frontend in effectively O(1) memory.

    ``rate_scale`` rescales the pattern's hourly rates so one profile can
    serve unit tests (thousands of requests) and the macrobench (millions).
    """

    pattern: DiurnalPattern
    region: str
    hours: int = 24
    seed: int = 0
    rate_scale: float = 1.0
    lengths: WorkloadLengths = WILDCHAT_LIKE
    #: Tokens shared by every request of the region (system prompt); keeps
    #: per-request allocations small and exercises the prefix cache.
    shared_prefix_tokens: int = 32
    user_turn_tokens: int = 8
    #: Spread users so consistent-hashing systems see realistic key counts.
    users: int = 1000

    def __iter__(self) -> Iterator[Tuple[float, Request]]:
        region_salt = zlib.crc32(self.region.encode("utf-8")) % 99991
        rng = random.Random(self.seed + region_salt)
        tokens = TokenFactory(seed=self.seed + region_salt)
        sampler = LengthSampler(self.lengths, seed=self.seed + region_salt + 1)
        prefix = tokens.fresh(self.shared_prefix_tokens)
        for hour in range(self.hours):
            rate = self.pattern.rate_at(hour) * self.rate_scale
            count = _poisson(rng, rate)
            start = hour * 3600.0
            arrivals = sorted(rng.uniform(start, start + 3600.0) for _ in range(count))
            for arrival in arrivals:
                user = rng.randrange(self.users)
                request = Request(
                    prompt_tokens=prefix + tokens.fresh(self.user_turn_tokens),
                    output_len=sampler.output(),
                    user_id=f"{self.region}-duser-{user}",
                    session_id=f"{self.region}-dsession-{user}",
                    region=self.region,
                )
                yield arrival, request

    def fresh_copy(self) -> "DiurnalRequestStream":
        return self
