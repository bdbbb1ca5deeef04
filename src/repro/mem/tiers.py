"""Tiered KV storage: HBM <-> host RAM <-> disk with transfer costs.

The replica's :class:`~repro.replica.kv_cache.RadixCache` stays the HBM
tier (token-granular radix sharing, exactly as before); this module models
what real engines layer *underneath* it:

* **offload tiers** (host RAM, NVMe) holding whole KV *segments* -- the
  contiguous token runs of evicted prefixes -- backed by a page-aligned
  :class:`~repro.mem.paging.PageAllocator` per tier, and
* a **transfer engine** charging every tier crossing a fixed latency plus
  ``bytes / bandwidth`` through the simulation clock.  Demotions are
  asynchronous (they occupy the engine but never stall the compute path);
  promotions are synchronous (a prefill that wants cold KV waits for the
  engine to be free, then for the copy), which is what turns tier sizing
  into the TTFT-vs-hit-rate trade-off of the Fig. 12 sweep.

Segment lookup is by longest common prefix against the stored segments,
bucketed by the first few tokens so the common case (a multi-turn prompt
re-sending history that was demoted verbatim) costs one dict hit plus one
tuple compare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .paging import PageAllocator, PageBlock
from .policies import OffloadPolicy

__all__ = ["TransferModel", "TierSpec", "TierSegment", "TierStore", "TieredKVStore"]

#: Tokens used to bucket segments for prefix lookup.
_BUCKET_TOKENS = 8


@dataclass(frozen=True)
class TransferModel:
    """Latency + bandwidth cost of moving KV bytes across one boundary."""

    latency_s: float
    bandwidth_bytes_per_s: float
    bytes_per_token: int

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")

    def bytes_for(self, tokens: int) -> int:
        return tokens * self.bytes_per_token

    def delay_s(self, tokens: int) -> float:
        """Wire time for ``tokens`` worth of KV across this boundary."""
        return self.latency_s + self.bytes_for(tokens) / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class TierSpec:
    """Capacity and transfer cost of one offload tier."""

    name: str
    capacity_tokens: int
    transfer: TransferModel


class TierSegment:
    """One offloaded KV segment resident in a tier."""

    __slots__ = ("entry_id", "tokens", "block", "last_access")

    def __init__(
        self, entry_id: int, tokens: Tuple[int, ...], block: PageBlock, last_access: float
    ) -> None:
        self.entry_id = entry_id
        self.tokens = tokens
        self.block = block
        self.last_access = last_access

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<TierSegment id={self.entry_id} tokens={len(self.tokens)}>"


class TierStore:
    """Segments of one offload tier, with page accounting and LRU eviction.

    Unlike the HBM radix tree, an offload tier stores whole segments:
    an evicted prefix is copied out as one contiguous page run, so there is
    no token-level sharing between segments (this matches how engines spill
    KV -- block copies, not tree surgery).  Deduplication still happens at
    ``put`` time: a segment that is a prefix of (or extends) a stored one
    replaces rather than duplicates it.
    """

    def __init__(self, spec: TierSpec, page_size: int) -> None:
        self.spec = spec
        self.name = spec.name
        self.allocator = PageAllocator(
            spec.capacity_tokens, page_size, spec.transfer.bytes_per_token
        )
        self._segments: Dict[int, TierSegment] = {}
        #: Prefix-lookup buckets: first-``_BUCKET_TOKENS`` tokens -> entry ids.
        self._buckets: Dict[Tuple[int, ...], List[int]] = {}
        self._entry_ids = itertools.count()
        #: Lazy LRU heap of ``(last_access, entry_id)``; stale entries are
        #: dropped at pop time (same pattern as the radix cache's leaf heap).
        self._lru_heap: List[Tuple[float, int]] = []
        # Monotonic telemetry.
        self.inserted_tokens = 0
        self.evicted_tokens = 0

    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def used_tokens(self) -> int:
        return self.allocator.used_tokens

    @property
    def capacity_tokens(self) -> int:
        return self.allocator.capacity_tokens

    def _bucket_key(self, tokens: Tuple[int, ...]) -> Tuple[int, ...]:
        return tokens[:_BUCKET_TOKENS]

    def _note_lru(self, segment: TierSegment) -> None:
        heappush(self._lru_heap, (segment.last_access, segment.entry_id))

    # ------------------------------------------------------------------
    def put(
        self, tokens: Tuple[int, ...], now: float
    ) -> Tuple[Optional[TierSegment], List[TierSegment]]:
        """Store a segment, evicting LRU segments if needed.

        Returns ``(stored, evicted)``: the resident segment (``None`` when
        the segment cannot fit even after evicting everything, or
        is already covered by a stored segment) and the victims displaced to
        make room, oldest first -- the tiered store cascades those downward.
        """
        if not tokens:
            return None, []
        key = self._bucket_key(tokens)
        # Dedup within the bucket: keep the longer of overlapping segments.
        for entry_id in self._buckets.get(key, ()):
            existing = self._segments[entry_id]
            shorter = min(len(existing.tokens), len(tokens))
            if existing.tokens[:shorter] != tokens[:shorter]:
                continue
            if len(existing.tokens) >= len(tokens):
                # Already covered: refresh recency, store nothing.
                existing.last_access = now
                self._note_lru(existing)
                return None, []
            # The new segment extends a stored one: replace it.
            self._remove(existing)
            break
        evicted: List[TierSegment] = []
        needed = self.allocator.pages_needed(len(tokens))
        if needed > self.allocator.num_pages:
            return None, evicted
        while needed > self.allocator.free_pages:
            victim = self._pop_lru()
            if victim is None:
                return None, evicted
            self._remove(victim)
            self.evicted_tokens += victim.num_tokens
            evicted.append(victim)
        block = self.allocator.alloc(len(tokens))
        segment = TierSegment(next(self._entry_ids), tokens, block, now)
        self._segments[segment.entry_id] = segment
        self._buckets.setdefault(key, []).append(segment.entry_id)
        self._note_lru(segment)
        self.inserted_tokens += len(tokens)
        return segment, evicted

    def _remove(self, segment: TierSegment) -> None:
        del self._segments[segment.entry_id]
        bucket = self._buckets[self._bucket_key(segment.tokens)]
        bucket.remove(segment.entry_id)
        if not bucket:
            del self._buckets[self._bucket_key(segment.tokens)]
        self.allocator.free(segment.block)

    def _pop_lru(self) -> Optional[TierSegment]:
        """The least recently used segment, or ``None`` when the tier is empty."""
        while self._lru_heap:
            last_access, entry_id = heappop(self._lru_heap)
            segment = self._segments.get(entry_id)
            if segment is not None and segment.last_access == last_access:
                return segment
        return None

    # ------------------------------------------------------------------
    def match(self, tokens: Tuple[int, ...]) -> Tuple[int, Optional[TierSegment]]:
        """Longest common prefix between ``tokens`` and any stored segment."""
        best_len = 0
        best: Optional[TierSegment] = None
        for entry_id in self._buckets.get(self._bucket_key(tokens), ()):
            segment = self._segments[entry_id]
            stored = segment.tokens
            limit = min(len(stored), len(tokens))
            if stored[:limit] == tokens[:limit]:
                overlap = limit
            else:
                overlap = 0
                while overlap < limit and stored[overlap] == tokens[overlap]:
                    overlap += 1
            if overlap > best_len or (
                overlap == best_len and best is not None and segment.entry_id < best.entry_id
            ):
                best_len = overlap
                best = segment
        if len(tokens) < _BUCKET_TOKENS:
            # Short prompts may prefix-match longer segments in other
            # buckets only if those share the whole prompt; covered above
            # because their bucket key starts with the prompt -- scan them.
            for key, entry_ids in self._buckets.items():
                if key[: len(tokens)] != tokens:
                    continue
                for entry_id in entry_ids:
                    segment = self._segments[entry_id]
                    if len(tokens) > best_len:
                        best_len = len(tokens)
                        best = segment
        return best_len, best

    def take(self, segment: TierSegment) -> None:
        """Remove a segment (promotion to a higher tier)."""
        self._remove(segment)

    def touch(self, segment: TierSegment, now: float) -> None:
        segment.last_access = now
        self._note_lru(segment)

    # ------------------------------------------------------------------
    def export(self) -> List[Tuple[int, ...]]:
        """Snapshot for crash-survivable tiers: each segment's tokens, in
        insertion order."""
        return [
            seg.tokens for seg in sorted(self._segments.values(), key=lambda s: s.entry_id)
        ]

    def check_invariants(self) -> None:
        self.allocator.check_invariants()
        indexed = {eid for ids in self._buckets.values() for eid in ids}
        if indexed != set(self._segments):
            raise AssertionError("tier bucket index out of sync with segments")
        if self.allocator.num_blocks != len(self._segments):
            raise AssertionError("tier allocator blocks out of sync with segments")
        if self.allocator.used_tokens != sum(s.num_tokens for s in self._segments.values()):
            raise AssertionError("tier token accounting drifted")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<TierStore {self.name} segments={len(self._segments)} "
            f"tokens={self.used_tokens}/{self.capacity_tokens}>"
        )


class TieredKVStore:
    """The offload tiers under one replica's HBM radix cache.

    Routing is policy-driven: the offload policy picks the destination tier
    for every eviction victim (HBM victims and cascading tier victims
    alike), and all byte movement shares one transfer engine whose busy
    time serialises through :attr:`engine_free_at` -- demotions are
    fire-and-forget, promotions stall the requesting prefill until the copy
    lands.
    """

    def __init__(
        self,
        tiers: Sequence[TierSpec],
        offload_policy: OffloadPolicy,
        *,
        page_size: int = 1,
    ) -> None:
        self.stores: Dict[str, TierStore] = {}
        order: List[str] = []
        for spec in tiers:
            if spec.capacity_tokens <= 0:
                continue
            if spec.name in self.stores:
                raise ValueError(f"duplicate tier name {spec.name!r}")
            self.stores[spec.name] = TierStore(spec, page_size)
            order.append(spec.name)
        self.order: Tuple[str, ...] = tuple(order)
        self.offload_policy = offload_policy
        #: Simulation time the shared transfer engine is next idle.
        self.engine_free_at = 0.0
        # Monotonic telemetry (the MemoryMetrics inputs).
        self.demoted_tokens = 0
        self.demotion_bytes = 0
        self.promoted_tokens = 0
        self.promotion_bytes = 0
        self.transfer_stall_s = 0.0
        self.dropped_tokens = 0
        self.tier_hit_tokens: Dict[str, int] = {name: 0 for name in order}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(self.order)

    def lower_tiers(self, from_tier: str) -> Tuple[str, ...]:
        """Tier names strictly below ``from_tier`` ("hbm" is above all)."""
        if from_tier == "hbm":
            return self.order
        if from_tier not in self.stores:
            return ()
        idx = self.order.index(from_tier)
        return self.order[idx + 1 :]

    def _engine_busy(self, duration_s: float, now: float) -> None:
        """Occupy the transfer engine without stalling the caller."""
        self.engine_free_at = max(self.engine_free_at, now) + duration_s

    # ------------------------------------------------------------------
    # demotion (HBM victims and cascading tier victims)
    # ------------------------------------------------------------------
    def demote(self, tokens: Tuple[int, ...], now: float, *, from_tier: str = "hbm") -> None:
        """Route one eviction victim through the offload policy."""
        if not tokens or not self.enabled:
            self.dropped_tokens += len(tokens)
            return
        target = self.offload_policy.demote_target(from_tier, self.lower_tiers(from_tier))
        if target is None:
            self.dropped_tokens += len(tokens)
            return
        if target not in self.stores or target not in self.lower_tiers(from_tier):
            raise ValueError(
                f"offload policy routed a {from_tier!r} victim to {target!r}; "
                f"valid targets: {self.lower_tiers(from_tier)}"
            )
        store = self.stores[target]
        stored, displaced = store.put(tokens, now)
        if stored is not None:
            # The copy occupies the engine but nobody waits on a demotion.
            self._engine_busy(store.spec.transfer.delay_s(len(tokens)), now)
            self.demoted_tokens += len(tokens)
            self.demotion_bytes += store.spec.transfer.bytes_for(len(tokens))
        else:
            self.dropped_tokens += len(tokens)
        # Cascade this tier's victims further down (or drop at the bottom).
        for victim in displaced:
            self.demote(victim.tokens, now, from_tier=target)

    # ------------------------------------------------------------------
    # promotion (cold prefix hits)
    # ------------------------------------------------------------------
    def lookup(
        self, prompt_tokens: Tuple[int, ...], hbm_matched: int
    ) -> Optional[Tuple[str, int, TierSegment]]:
        """Best cold-tier extension of an HBM prefix match, top tier first.

        Returns ``(tier, matched_tokens, segment)`` with ``matched_tokens >
        hbm_matched``, or ``None``.  Non-mutating: callers only
        :meth:`promote` after the request is actually admitted.
        """
        for name in self.order:
            matched, segment = self.stores[name].match(prompt_tokens)
            if segment is not None and matched > hbm_matched:
                return name, matched, segment
        return None

    def promote(
        self, found: Tuple[str, int, TierSegment], hbm_matched: int, now: float
    ) -> Tuple[int, float]:
        """Move a matched segment up to HBM; returns ``(tokens, stall_s)``.

        Only the tokens *beyond* the HBM match cross the boundary (the rest
        is already resident).  The caller re-inserts the prompt into the
        radix cache, which is where the promoted tokens land.  The stall is
        synchronous: engine queueing + latency + bytes/bandwidth.
        """
        tier, matched, segment = found
        store = self.stores[tier]
        promoted = matched - hbm_matched
        if promoted <= 0:
            return 0, 0.0
        store.take(segment)
        start = max(now, self.engine_free_at)
        finish = start + store.spec.transfer.delay_s(promoted)
        self.engine_free_at = finish
        stall = finish - now
        self.transfer_stall_s += stall
        self.promoted_tokens += promoted
        self.promotion_bytes += store.spec.transfer.bytes_for(promoted)
        self.tier_hit_tokens[tier] += promoted
        return promoted, stall

    # ------------------------------------------------------------------
    # crash composition
    # ------------------------------------------------------------------
    def export_tier(self, name: str):
        """Snapshot one tier's segments (e.g. disk surviving a crash)."""
        store = self.stores.get(name)
        return store.export() if store is not None else []

    def restore_tier(self, name: str, snapshot, now: float) -> None:
        """Re-seed a tier from a snapshot (:meth:`export_tier`)."""
        store = self.stores.get(name)
        if store is None:
            return
        for tokens in snapshot:
            store.put(tokens, now)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        for store in self.stores.values():
            store.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        tiers = {name: self.stores[name].used_tokens for name in self.order}
        return f"<TieredKVStore {tiers}>"
