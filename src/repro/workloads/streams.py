"""Generator-backed workload streams.

The legacy workload path materializes every :class:`~repro.workloads.program.
Program` of a run up front, which is fine for minutes-long cells but not for
the paper's millions-of-users diurnal regime: a full-day, million-request
trace costs tens of gigabytes as lists.  This module provides the lazy
alternative:

* :class:`ProgramStream` -- a picklable, *re-instantiable* description of one
  region's program sequence.  Iterating it regenerates the programs from the
  builder's config and seed, so a stream can be replayed (``fresh_copy``),
  shipped to sweep worker processes, and split across clients without ever
  holding more than one program in memory.
* :class:`DiurnalRequestStream` -- a lazy day-long ``(arrival_time, Request)``
  stream sampled from a :class:`~repro.workloads.diurnal.DiurnalPattern`,
  used by the open-loop trace-replay clients and the engine macrobench.

Equivalence contract: for every registered factory, iterating the stream
yields programs whose semantic payload (prompt tokens, output lengths, user
and session identities, stage structure) is byte-identical to the legacy
materialized list for the same config -- the tests in
``tests/workloads/test_streaming_equivalence.py`` pin this for every builder.
Only the global ``Request.request_id`` counter values differ, because lazy
construction interleaves differently with other allocations.

Why factories yield ``(region, program)`` pairs in *legacy global order*
rather than one region directly: several legacy builders share a single RNG
across regions (e.g. one ``TreeOfThoughtsWorkload`` generating us, then eu,
then asia), so reproducing one region's sequence exactly requires replaying
the whole generation order and filtering.  That trades CPU (regions x) for
O(1) memory; single-region configs (wildchat, skewed) pay nothing extra.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterator, List, Tuple

from .._registry import NameRegistry
from .conversation import ConversationConfig, ConversationWorkload
from .diurnal import DiurnalPattern, _poisson
from .lengths import LengthSampler, WorkloadLengths, WILDCHAT_LIKE
from .program import Program
from .request import Request
from .tokens import TokenFactory
from .tree_of_thoughts import TreeOfThoughtsConfig, TreeOfThoughtsWorkload

__all__ = [
    "ProgramStream",
    "DiurnalRequestStream",
    "register_stream_factory",
]

#: Registry of stream factories.  Each factory is a generator function
#: yielding ``(region, Program)`` pairs in the legacy builder's global
#: generation order (see module docstring for why the order matters).
_STREAMS = NameRegistry("stream factory", plural="stream factories", normalize=str)

StreamFactory = Callable[..., Iterator[Tuple[str, Program]]]


def register_stream_factory(name: str) -> Callable[[StreamFactory], StreamFactory]:
    """Decorator registering a program-stream factory under ``name``."""
    return _STREAMS.register(name)


@register_stream_factory("conversation")
def conversation_stream(*, config: ConversationConfig) -> Iterator[Tuple[str, Program]]:
    """Lazily replay ``ConversationWorkload.generate_programs`` one program
    at a time (identical RNG consumption order, so identical programs)."""
    workload = ConversationWorkload(config)
    for user in workload.users:
        for index in range(config.conversations_per_user):
            yield user.region, workload.generate_conversation(user, index)


@register_stream_factory("tree-of-thoughts")
def tree_of_thoughts_stream(
    *,
    config: TreeOfThoughtsConfig,
    counts: Tuple[Tuple[str, int], ...],
    user_prefix: str = "tot-user",
) -> Iterator[Tuple[str, Program]]:
    """Lazily replay ``TreeOfThoughtsWorkload.generate_programs`` across the
    regions of ``counts`` (one shared workload instance, legacy RNG order)."""
    workload = TreeOfThoughtsWorkload(config)
    for region, count in counts:
        for index in range(count):
            question_id = f"{region}/question-{config.branching_factor}b-{index}"
            user_id = f"{region}/{user_prefix}-{index}"
            yield region, workload.generate_tree(question_id, user_id, region)


@dataclass(frozen=True)
class _StridedView:
    """Programs ``offset, offset+step, ...`` of a stream (one client's share).

    Mirrors the list path's round-robin split:
    ``chunks[i] == programs[i::parts]``.  Each view iterates the underlying
    stream independently, so splitting an n-client region regenerates the
    stream n times -- CPU for memory, by design.
    """

    stream: "ProgramStream"
    offset: int
    step: int

    def __iter__(self) -> Iterator[Program]:
        return islice(iter(self.stream), self.offset, None, self.step)

    def __len__(self) -> int:
        total = len(self.stream)
        if self.offset >= total:
            return 0
        return (total - self.offset + self.step - 1) // self.step

    def __bool__(self) -> bool:
        return len(self) > 0


@dataclass(frozen=True)
class ProgramStream:
    """A picklable, re-instantiable lazy sequence of one region's programs.

    Parameters
    ----------
    factory:
        Name of a registered stream factory
        (see :func:`register_stream_factory`).
    region:
        The region whose programs this stream yields; other regions'
        programs are generated (to keep the RNG sequence identical to the
        legacy builder) but skipped.
    num_programs:
        Exact number of programs this stream yields, known up front from
        the builder's config -- lets clients be laid out without iterating.
    kwargs:
        Factory keyword arguments as a tuple of ``(name, value)`` pairs
        (kept as a tuple so the spec stays frozen/hashable/picklable).
    """

    factory: str
    region: str
    num_programs: int
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __iter__(self) -> Iterator[Program]:
        for region, program in _STREAMS.make(self.factory, **dict(self.kwargs)):
            if region == self.region:
                yield program

    def __len__(self) -> int:
        return self.num_programs

    def __bool__(self) -> bool:
        return self.num_programs > 0

    def fresh_copy(self) -> "ProgramStream":
        """Streams are stateless descriptions: every iteration regenerates
        pristine programs, so the fresh copy is the stream itself."""
        return self

    def split(self, parts: int) -> List[_StridedView]:
        """Round-robin split into ``parts`` independent lazy views, matching
        the materialized path's ``programs[i::parts]`` assignment."""
        if parts < 1:
            raise ValueError("parts must be at least 1")
        return [_StridedView(stream=self, offset=i, step=parts) for i in range(parts)]

    def materialize(self) -> List[Program]:
        """Generate the full program list (testing/debug escape hatch)."""
        return list(self)


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
