"""KV-memory accounting for a single replica.

The GPU's KV budget (in tokens, derived from the
:class:`~repro.replica.model_profile.ModelProfile`) is shared between

* the radix prefix cache (prompt tokens of past and running requests), and
* the *output* tokens of currently running requests, which live outside the
  tree until the request finishes (at which point the full sequence may be
  re-inserted as a reusable prefix).

The manager only hands out admission grants when the uncached part of the
prompt plus an output reserve fits after evicting unlocked cache entries --
this is the quantity that determines how many requests a replica can batch
concurrently, and therefore what "pending requests" means for selective
pushing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..mem import MemoryConfig
from .kv_cache import RadixCache, RadixNode
from .model_profile import ModelProfile

__all__ = ["AdmissionGrant", "KVMemoryManager"]


@dataclass
class AdmissionGrant:
    """Everything the batcher needs to know about an admitted request."""

    request_id: int
    cached_tokens: int
    new_prompt_tokens: int
    locked_node: Optional[RadixNode]
    output_tokens: int = 0
    #: Tokens served from an offload tier (they skip prefill compute like
    #: cached tokens, but the promotion copy stalls the prefill instead).
    promoted_tokens: int = 0
    #: Transfer-engine stall the promotion adds to this request's prefill.
    promotion_stall_s: float = 0.0


class KVMemoryManager:
    """Token-granularity KV memory accounting for one replica.

    With a non-default :class:`~repro.mem.MemoryConfig` the flat budget
    becomes the page-rounded HBM tier of a :class:`~repro.mem.TieredKVStore`:
    pressure-eviction victims demote through the configured offload policy
    instead of vanishing, and admissions that extend their HBM prefix match
    on a lower tier pay that tier's promotion delay before prefill.
    """

    def __init__(self, profile: ModelProfile, memory: MemoryConfig = MemoryConfig()) -> None:
        self.profile = profile
        self.memory = memory
        self.capacity_tokens = memory.hbm_capacity_tokens(profile.kv_capacity_tokens)
        self.cache = RadixCache(capacity_tokens=self.capacity_tokens)
        #: Offload tiers under HBM; ``None`` on the (default) legacy path.
        self.tiers = memory.build_store(profile.kv_bytes_per_token)
        if self.tiers is not None and not self.tiers.offload_policy.inert:
            self.cache.on_evict = self.tiers.demote
        #: Output tokens held by running requests, outside the radix tree.
        self._grants: Dict[int, AdmissionGrant] = {}
        #: Prompt tokens of running requests that could not be inserted into
        #: the cache (capacity truncated); they still occupy KV memory.
        self._uncached_prompt_tokens: Dict[int, int] = {}
        # Running totals so the per-step/per-probe load queries below are
        # O(1) instead of re-summing every grant (these sit on the decode
        # hot path: one query per scheduler step and per admission check).
        self._output_tokens_total = 0
        self._uncached_prompt_total = 0
        self._prompt_tokens_total = 0

    # ------------------------------------------------------------------
    @property
    def output_tokens_in_use(self) -> int:
        return self._output_tokens_total

    @property
    def used_tokens(self) -> int:
        """Tokens currently occupying KV memory."""
        return (
            self.cache.total_tokens
            + self._output_tokens_total
            + self._uncached_prompt_total
        )

    @property
    def context_tokens_total(self) -> int:
        """Prompt + generated tokens over all running requests (the decode
        step's attention context), maintained incrementally."""
        return self._prompt_tokens_total + self._output_tokens_total

    @property
    def free_tokens(self) -> int:
        return max(0, self.capacity_tokens - self.used_tokens)

    @property
    def utilization(self) -> float:
        """Fraction of the KV budget in use (the paper's Fig. 4b metric)."""
        if self.capacity_tokens == 0:
            return 0.0
        return self.used_tokens / self.capacity_tokens

    @property
    def num_running(self) -> int:
        return len(self._grants)

    # ------------------------------------------------------------------
    def admit(self, request_id: int, prompt_tokens: Sequence[int], now: float) -> Optional[AdmissionGrant]:
        """Try to admit a request; returns a grant or ``None`` if it does not fit."""
        if request_id in self._grants:
            raise ValueError(f"request {request_id} is already admitted")
        reserve = self.profile.admission_output_reserve
        match = self.cache.match_prefix(prompt_tokens, now=now)
        cached = match.matched_tokens
        new_prompt = len(prompt_tokens) - cached
        needed = new_prompt + reserve
        if needed > self.free_tokens + self.cache.evictable_tokens():
            return None
        # Pin the matched prefix before evicting so it cannot be a victim.
        if match.last_node is not None:
            self.cache.lock(match.last_node)
        shortfall = needed - self.free_tokens
        if shortfall > 0:
            self.cache.evict(shortfall, now=now)
        if needed > self.free_tokens:
            if match.last_node is not None:
                self.cache.unlock(match.last_node)
            return None

        # Insert the full prompt into the tree and lock the deepest node so
        # the whole prompt stays resident while the request runs.
        _, inserted, locked_node = self.cache.insert_path(prompt_tokens, now=now)
        uninserted = len(prompt_tokens) - inserted
        if locked_node is not None:
            self.cache.lock(locked_node)
        if match.last_node is not None:
            self.cache.unlock(match.last_node)

        # A lower tier may extend the HBM prefix match: those tokens skip
        # prefill compute but the promotion copy stalls this prefill.  The
        # lookup runs after the insert so eviction-triggered demotions of
        # this very admit cannot invalidate the chosen segment.
        promoted = 0
        stall = 0.0
        if self.tiers is not None:
            found = self.tiers.lookup(tuple(prompt_tokens), cached)
            if found is not None:
                promoted, stall = self.tiers.promote(found, cached, now)
                promoted = min(promoted, new_prompt)

        grant = AdmissionGrant(
            request_id=request_id,
            cached_tokens=cached,
            new_prompt_tokens=new_prompt,
            locked_node=locked_node,
            promoted_tokens=promoted,
            promotion_stall_s=stall,
        )
        self._grants[request_id] = grant
        self._prompt_tokens_total += cached + new_prompt
        if uninserted > 0:
            # Capacity-truncated tail of the prompt still occupies KV memory
            # for the lifetime of the request, it is just not reusable.
            self._uncached_prompt_tokens[request_id] = uninserted
            self._uncached_prompt_total += uninserted
        return grant

    # ------------------------------------------------------------------
    def add_output_token(self, request_id: int, count: int = 1) -> None:
        """Account for ``count`` newly generated tokens of a running request."""
        grant = self._grants.get(request_id)
        if grant is None:
            raise KeyError(f"request {request_id} is not running")
        grant.output_tokens += count
        self._output_tokens_total += count

    def note_generated(self, count: int) -> None:
        """Credit ``count`` output tokens whose grants the caller updates
        itself (the batcher's decode loop holds direct grant references)."""
        self._output_tokens_total += count

    def context_tokens(self, request_id: int) -> int:
        """Prompt + generated tokens currently attended to by a request."""
        grant = self._grants[request_id]
        prompt = grant.cached_tokens + grant.new_prompt_tokens
        return prompt + grant.output_tokens

    def release(self, request_id: int, now: float, *, cache_output: bool = False,
                full_sequence: Optional[Sequence[int]] = None) -> None:
        """Release a finished (or failed) request's memory.

        The prompt prefix stays in the radix cache (unlocked, evictable);
        output tokens are dropped unless ``cache_output`` is set and the full
        sequence is provided, in which case they are inserted as a reusable
        prefix (multi-turn conversations benefit from this, mirroring SGLang).
        """
        grant = self._grants.pop(request_id, None)
        if grant is None:
            raise KeyError(f"request {request_id} is not running")
        self._output_tokens_total -= grant.output_tokens
        self._prompt_tokens_total -= grant.cached_tokens + grant.new_prompt_tokens
        self._uncached_prompt_total -= self._uncached_prompt_tokens.pop(request_id, 0)
        if grant.locked_node is not None:
            self.cache.unlock(grant.locked_node)
        if cache_output and full_sequence is not None:
            free_budget = self.capacity_tokens - self.cache.total_tokens
            extra = len(full_sequence) - self.cache.match_prefix(
                full_sequence, record=False
            ).matched_tokens
            if extra <= free_budget:
                self.cache.insert(full_sequence, now=now)

    def check_invariants(self) -> None:
        """Structural sanity checks used by the property-based tests."""
        self.cache.check_invariants()
        if self.tiers is not None:
            self.tiers.check_invariants()
        if self.used_tokens > self.capacity_tokens:
            raise AssertionError("KV memory over capacity")
        if self.output_tokens_in_use < 0:
            raise AssertionError("negative output token accounting")
        if self._output_tokens_total != sum(g.output_tokens for g in self._grants.values()):
            raise AssertionError("output token running total drifted from grants")
        if self._uncached_prompt_total != sum(self._uncached_prompt_tokens.values()):
            raise AssertionError("uncached prompt running total drifted")
        if self._prompt_tokens_total != sum(
            g.cached_tokens + g.new_prompt_tokens for g in self._grants.values()
        ):
            raise AssertionError("prompt token running total drifted from grants")
