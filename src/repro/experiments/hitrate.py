"""Fig. 6: KV-cache hit rate of consistent hashing vs an optimal global view.

The paper identifies three situations where user-keyed consistent hashing
falls short of an oracle router that sees every replica's cache state:

* **cross-user sharing** -- users share templates/prefixes, but CH scatters
  them across replicas;
* **bursty requests** -- a burst from one user saturates its hashed replica
  and the overflow loses affinity;
* **heterogeneous programs** -- one user's requests follow several distinct
  prompt patterns, so a single hash target thrashes its cache.

This module replays synthetic request streams against per-replica radix
caches (no timing simulation needed) and reports the token-level hit rate of
each routing policy, mirroring the bar chart in Fig. 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.hash_ring import ConsistentHashRing
from ..replica.kv_cache import RadixCache
from ..workloads.request import Request
from ..workloads.tokens import TokenFactory

__all__ = [
    "HitRateScenario",
    "HitRateComparison",
    "build_scenario",
    "evaluate_hit_rates",
    "run_hitrate_benchmark",
    "SCENARIOS",
]

SCENARIOS = ("cross-user-sharing", "bursty-request", "heterogeneous-program")


@dataclass
class HitRateScenario:
    """A request stream organised into concurrent batches."""

    name: str
    batches: List[List[Request]]

    @property
    def num_requests(self) -> int:
        return sum(len(batch) for batch in self.batches)


@dataclass
class HitRateComparison:
    """Hit rates per scenario and routing policy."""

    results: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def gap(self, scenario: str) -> float:
        """Absolute hit-rate gap between the optimal router and CH."""
        row = self.results[scenario]
        return row["optimal"] - row["consistent-hashing"]

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: dict(row) for name, row in self.results.items()}


# ----------------------------------------------------------------------
# scenario construction
# ----------------------------------------------------------------------
def build_scenario(name: str, *, seed: int = 0) -> HitRateScenario:
    """Create one of the three Fig. 6 request streams."""
    rng = random.Random(seed)
    tokens = TokenFactory()
    batches: List[List[Request]] = []

    if name == "cross-user-sharing":
        # Many users share a sizeable library of long templates.  A router
        # with a global view can partition templates across replicas so each
        # replica's cache holds a few of them hot; user-keyed hashing instead
        # duplicates the whole library on every replica and thrashes.
        templates = [tokens.fresh(800) for _ in range(12)]
        for round_index in range(40):
            batch: List[Request] = []
            for user in range(24):
                template = templates[user % len(templates)]
                prompt = template + tokens.fresh(rng.randint(30, 80))
                batch.append(Request(prompt_tokens=prompt, output_len=1, user_id=f"user-{user}"))
            batches.append(batch)
    elif name == "bursty-request":
        # A handful of users, each occasionally bursting far beyond one
        # replica's concurrent capacity.
        contexts = {f"user-{u}": tokens.fresh(800) for u in range(6)}
        for round_index in range(40):
            batch = []
            for user, context in contexts.items():
                burst = 1 if rng.random() < 0.7 else rng.randint(6, 10)
                for _ in range(burst):
                    prompt = context + tokens.fresh(rng.randint(20, 80))
                    batch.append(Request(prompt_tokens=prompt, output_len=1, user_id=user))
            batches.append(batch)
    elif name == "heterogeneous-program":
        # Each user's program alternates between several unrelated patterns.
        patterns = [tokens.fresh(700) for _ in range(8)]
        for round_index in range(40):
            batch = []
            for user in range(12):
                pattern = patterns[rng.randrange(len(patterns))]
                prompt = pattern + tokens.fresh(rng.randint(30, 100))
                batch.append(Request(prompt_tokens=prompt, output_len=1, user_id=f"user-{user}"))
            batches.append(batch)
    else:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    return HitRateScenario(name=name, batches=batches)


# ----------------------------------------------------------------------
# routing policies over per-replica caches
# ----------------------------------------------------------------------
def _replay(
    scenario: HitRateScenario,
    num_replicas: int,
    cache_capacity_tokens: int,
    slots_per_replica: int,
    chooser,
) -> float:
    """Replay the stream with a replica chooser; returns token hit rate."""
    caches = [RadixCache(capacity_tokens=cache_capacity_tokens) for _ in range(num_replicas)]
    hit = 0
    total = 0
    clock = 0.0
    for batch in scenario.batches:
        slots = [slots_per_replica] * num_replicas
        for request in batch:
            clock += 1.0
            index = chooser(request, caches, slots)
            cache = caches[index]
            match = cache.match_prefix(request.prompt_tokens, now=clock, record=False)
            hit += match.matched_tokens
            total += request.prompt_len
            needed = request.prompt_len - match.matched_tokens
            free = cache.capacity_tokens - cache.total_tokens
            if needed > free:
                cache.evict(needed - free, now=clock)
            cache.insert(request.prompt_tokens, now=clock)
            slots[index] = max(0, slots[index] - 1)
    return hit / total if total else 0.0


def _ch_chooser(num_replicas: int):
    ring: ConsistentHashRing[int] = ConsistentHashRing(range(num_replicas))

    def choose(request: Request, caches: Sequence[RadixCache], slots: Sequence[int]) -> int:
        available = [i for i in range(num_replicas) if slots[i] > 0] or list(range(num_replicas))
        target = ring.lookup(request.user_id, available)
        return target if target is not None else available[0]

    return choose


def _optimal_chooser(num_replicas: int):
    def choose(request: Request, caches: Sequence[RadixCache], slots: Sequence[int]) -> int:
        available = [i for i in range(num_replicas) if slots[i] > 0] or list(range(num_replicas))
        best = max(
            available,
            key=lambda i: (
                caches[i].match_prefix(request.prompt_tokens, record=False).matched_tokens,
                slots[i],   # break prefix ties toward the emptiest replica
                -i,
            ),
        )
        return best

    return choose


def evaluate_hit_rates(
    scenario: HitRateScenario,
    *,
    num_replicas: int = 4,
    cache_capacity_tokens: int = 3600,
    slots_per_replica: int = 8,
) -> Dict[str, float]:
    """Hit rate of consistent hashing vs the optimal router on one scenario."""
    return {
        "consistent-hashing": _replay(
            scenario, num_replicas, cache_capacity_tokens, slots_per_replica,
            _ch_chooser(num_replicas),
        ),
        "optimal": _replay(
            scenario, num_replicas, cache_capacity_tokens, slots_per_replica,
            _optimal_chooser(num_replicas),
        ),
    }


def run_hitrate_benchmark(*, seed: int = 0, **kwargs) -> HitRateComparison:
    """Evaluate every Fig. 6 scenario."""
    comparison = HitRateComparison()
    for name in SCENARIOS:
        scenario = build_scenario(name, seed=seed)
        comparison.results[name] = evaluate_hit_rates(scenario, **kwargs)
    return comparison
