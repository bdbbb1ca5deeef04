"""Tiered KV-memory telemetry aggregation (the Fig. 12 inputs).

:func:`collect_memory_metrics` sums each replica's
:class:`~repro.mem.TieredKVStore` counters (and each balancer's pushed-KV
counters) into one fleet-wide :class:`MemoryMetrics` record: per-tier hit
rates, promotion/demotion byte volumes, page occupancy and transfer-stall
time.  Only runs with a non-default :class:`~repro.mem.MemoryConfig`
produce one -- the legacy flat-memory path carries no tier telemetry at
all, keeping its metric payloads bit-identical to historical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["TierUsage", "MemoryMetrics", "collect_memory_metrics"]


@dataclass
class TierUsage:
    """Fleet-wide end-of-run state and traffic of one offload tier."""

    name: str
    #: Prompt tokens served out of this tier (promoted to HBM on a hit).
    hit_tokens: int
    #: ``hit_tokens`` over all admitted prompt tokens.
    hit_rate: float
    used_tokens: int
    capacity_tokens: int
    #: Fraction of the tier's pages holding segments at end of run.
    page_occupancy: float
    num_segments: int
    #: Monotonic insert/evict traffic (churn shows up as a large gap
    #: between these and ``used_tokens``).
    inserted_tokens: int
    evicted_tokens: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "hit_tokens": self.hit_tokens,
            "hit_rate": self.hit_rate,
            "used_tokens": self.used_tokens,
            "capacity_tokens": self.capacity_tokens,
            "page_occupancy": self.page_occupancy,
            "num_segments": self.num_segments,
            "inserted_tokens": self.inserted_tokens,
            "evicted_tokens": self.evicted_tokens,
        }


@dataclass
class MemoryMetrics:
    """Everything the tier-size sweep reports about one run's KV memory."""

    #: Token-level HBM (radix cache) hit rate -- same number as the legacy
    #: ``cache_hit_rate``, repeated here so tier reports are self-contained.
    hbm_hit_rate: float
    #: Fraction of prompt tokens served from offload tiers (promotions).
    tier_hit_rate: float
    #: HBM + tier hits combined: the "effective" prefix hit rate.
    combined_hit_rate: float

    #: End-of-run HBM page occupancy (fleet used / fleet capacity).
    hbm_page_occupancy: float

    # Transfer-engine traffic, summed over the fleet.
    promoted_tokens: int
    promotion_bytes: int
    demoted_tokens: int
    demotion_bytes: int
    #: Victim tokens the offload policy lets vanish.
    dropped_tokens: int
    #: Promotion stall charged through the engine (queueing + copy).
    transfer_stall_s: float
    #: The subset of that stall actually added to admitted prefills.
    promotion_stall_s: float

    tiers: List[TierUsage] = field(default_factory=list)

    # Pushed-KV transfer costs on the balancer dispatch path.
    pushed_prefix_tokens: int = 0
    pushed_prefix_bytes: int = 0
    push_transfer_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "hbm_hit_rate": self.hbm_hit_rate,
            "tier_hit_rate": self.tier_hit_rate,
            "combined_hit_rate": self.combined_hit_rate,
            "hbm_page_occupancy": self.hbm_page_occupancy,
            "promoted_tokens": self.promoted_tokens,
            "promotion_bytes": self.promotion_bytes,
            "demoted_tokens": self.demoted_tokens,
            "demotion_bytes": self.demotion_bytes,
            "dropped_tokens": self.dropped_tokens,
            "transfer_stall_s": self.transfer_stall_s,
            "promotion_stall_s": self.promotion_stall_s,
            "tiers": [tier.to_dict() for tier in self.tiers],
            "pushed_prefix_tokens": self.pushed_prefix_tokens,
            "pushed_prefix_bytes": self.pushed_prefix_bytes,
            "push_transfer_s": self.push_transfer_s,
        }

    def format_row(self) -> str:
        """One human-readable summary row (used by the tier benchmark)."""
        tier_bits = " ".join(
            f"{tier.name}={tier.hit_rate * 100:.1f}%" for tier in self.tiers
        )
        return (
            f"hit hbm={self.hbm_hit_rate * 100:5.1f}% "
            f"tiers={self.tier_hit_rate * 100:5.1f}% [{tier_bits}]  "
            f"promo={self.promotion_bytes / 1e9:6.2f}GB "
            f"demo={self.demotion_bytes / 1e9:6.2f}GB  "
            f"stall={self.promotion_stall_s:6.2f}s"
        )


def collect_memory_metrics(deployment, balancers: Sequence = ()) -> MemoryMetrics:
    """Aggregate tier telemetry across a deployment's replicas.

    Deterministic: replicas are visited in deployment order and tiers in
    each store's top-down order, so equal simulations produce bit-identical
    records (the serial-vs-workers identity checks compare these).
    """
    total_prompt = 0
    total_cached = 0
    total_promoted = 0
    promotion_stall_s = 0.0

    hbm_used = 0
    hbm_capacity = 0

    promoted_tokens = 0
    promotion_bytes = 0
    demoted_tokens = 0
    demotion_bytes = 0
    dropped_tokens = 0
    transfer_stall_s = 0.0

    tier_order: List[str] = []
    tier_hits: Dict[str, int] = {}
    tier_used: Dict[str, int] = {}
    tier_capacity: Dict[str, int] = {}
    tier_pages_used: Dict[str, int] = {}
    tier_pages: Dict[str, int] = {}
    tier_segments: Dict[str, int] = {}
    tier_inserted: Dict[str, int] = {}
    tier_evicted: Dict[str, int] = {}

    for replica in deployment.replicas:
        batcher = replica.batcher
        total_prompt += batcher.total_prompt_tokens
        total_cached += batcher.total_cached_tokens
        total_promoted += batcher.total_promoted_tokens
        promotion_stall_s += batcher.total_promotion_stall_s

        manager = batcher.memory
        hbm_used += manager.used_tokens
        hbm_capacity += manager.capacity_tokens

        tiers = manager.tiers
        if tiers is None:
            continue
        promoted_tokens += tiers.promoted_tokens
        promotion_bytes += tiers.promotion_bytes
        demoted_tokens += tiers.demoted_tokens
        demotion_bytes += tiers.demotion_bytes
        dropped_tokens += tiers.dropped_tokens
        transfer_stall_s += tiers.transfer_stall_s
        for name in tiers.order:
            store = tiers.stores[name]
            if name not in tier_hits:
                tier_order.append(name)
                tier_hits[name] = tier_used[name] = tier_capacity[name] = 0
                tier_pages_used[name] = tier_pages[name] = 0
                tier_segments[name] = tier_inserted[name] = tier_evicted[name] = 0
            tier_hits[name] += tiers.tier_hit_tokens[name]
            tier_used[name] += store.used_tokens
            tier_capacity[name] += store.capacity_tokens
            tier_pages_used[name] += store.allocator.used_pages
            tier_pages[name] += store.allocator.num_pages
            tier_segments[name] += store.num_segments
            tier_inserted[name] += store.inserted_tokens
            tier_evicted[name] += store.evicted_tokens

    pushed_prefix_tokens = 0
    pushed_prefix_bytes = 0
    push_transfer_s = 0.0
    for balancer in balancers:
        pushed_prefix_tokens += balancer.pushed_prefix_tokens
        pushed_prefix_bytes += balancer.pushed_prefix_bytes
        push_transfer_s += balancer.push_transfer_s

    def rate(hits: int) -> float:
        return hits / total_prompt if total_prompt > 0 else 0.0

    tiers_out = [
        TierUsage(
            name=name,
            hit_tokens=tier_hits[name],
            hit_rate=rate(tier_hits[name]),
            used_tokens=tier_used[name],
            capacity_tokens=tier_capacity[name],
            page_occupancy=(
                tier_pages_used[name] / tier_pages[name] if tier_pages[name] else 0.0
            ),
            num_segments=tier_segments[name],
            inserted_tokens=tier_inserted[name],
            evicted_tokens=tier_evicted[name],
        )
        for name in tier_order
    ]

    return MemoryMetrics(
        hbm_hit_rate=rate(total_cached),
        tier_hit_rate=rate(total_promoted),
        combined_hit_rate=rate(total_cached + total_promoted),
        hbm_page_occupancy=hbm_used / hbm_capacity if hbm_capacity else 0.0,
        promoted_tokens=promoted_tokens,
        promotion_bytes=promotion_bytes,
        demoted_tokens=demoted_tokens,
        demotion_bytes=demotion_bytes,
        dropped_tokens=dropped_tokens,
        transfer_stall_s=transfer_stall_s,
        promotion_stall_s=promotion_stall_s,
        tiers=tiers_out,
        pushed_prefix_tokens=pushed_prefix_tokens,
        pushed_prefix_bytes=pushed_prefix_bytes,
        push_transfer_s=push_transfer_s,
    )
