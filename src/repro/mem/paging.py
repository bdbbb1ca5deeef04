"""Page-aligned KV allocation, modelled after sglang's token pools.

Real engines do not hand out KV memory token by token: sglang's
``token_to_kv_pool`` allocates in *pages* of ``page_size`` token slots and
rounds the pool itself down to a whole number of pages
(``max_total_num_tokens // page_size * page_size``).  Two consequences the
flat token-budget model cannot express:

* **internal fragmentation** -- a sequence of ``n`` tokens pins
  ``ceil(n / page_size)`` pages, so the pool "fills up" before the token
  counter says so, and
* **free-list reuse** -- freed pages go on a free list and are handed out
  LIFO, so occupancy is a page count, not a token count.

:class:`PageAllocator` reproduces both with O(1) running counters
(``used_pages`` / ``free_pages`` / ``used_tokens`` / ``slack_tokens``)
whose drift is checked against a full recount by :meth:`check_invariants`.
``bytes_per_token`` (snippet-1 style accounting: bytes = 2 * layers *
kv-heads * head-dim * dtype-size) turns token counts into byte occupancy
for the tier-transfer cost model in :mod:`repro.mem.tiers`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["PageBlock", "PageAllocator", "round_to_pages"]


def round_to_pages(capacity_tokens: int, page_size: int) -> int:
    """Round a token budget *down* to a whole number of pages.

    This is sglang's ``max_total_num_tokens // page_size * page_size``: the
    trailing partial page can never be allocated, so it is excluded from the
    usable capacity up front.
    """
    if page_size < 1:
        raise ValueError("page_size must be at least 1")
    if capacity_tokens < 0:
        raise ValueError("capacity_tokens must be non-negative")
    return capacity_tokens // page_size * page_size


@dataclass(frozen=True)
class PageBlock:
    """One allocation: a run of whole pages backing ``tokens`` token slots.

    ``pages`` are the page indices (stable for the block's lifetime), kept
    so tests can assert free-list reuse; ``slack`` is the internal
    fragmentation (allocated-but-unused token slots in the last page).
    """

    block_id: int
    tokens: int
    pages: Tuple[int, ...] = field(repr=False)

    @property
    def num_pages(self) -> int:
        return len(self.pages)


class PageAllocator:
    """A page-granular token-slot allocator with LIFO free-list reuse.

    Parameters
    ----------
    capacity_tokens:
        Raw token budget; rounded down to a page multiple (the usable
        capacity is :attr:`capacity_tokens` after construction).
    page_size:
        Token slots per page.  ``page_size=1`` makes every quantity
        token-granular, i.e. exactly the legacy flat accounting.
    bytes_per_token:
        KV bytes per token slot, for byte-level occupancy/transfer sizes.
    """

    def __init__(
        self,
        capacity_tokens: int,
        page_size: int = 1,
        bytes_per_token: int = 0,
    ) -> None:
        if bytes_per_token < 0:
            raise ValueError("bytes_per_token must be non-negative")
        self.page_size = page_size
        self.capacity_tokens = round_to_pages(capacity_tokens, page_size)
        self.num_pages = self.capacity_tokens // page_size
        self.bytes_per_token = bytes_per_token
        #: Freed page indices, reused LIFO (hot pages stay cache-warm in a
        #: real allocator; here it pins a deterministic reuse order).
        self._free_list: List[int] = []
        #: First never-allocated page index.
        self._next_page = 0
        self._blocks: Dict[int, PageBlock] = {}
        self._block_ids = itertools.count()
        # O(1) running counters (drift-checked by check_invariants).
        self._used_pages = 0
        self._used_tokens = 0
        self._slack_tokens = 0

    # ------------------------------------------------------------------
    # O(1) occupancy counters
    # ------------------------------------------------------------------
    @property
    def used_pages(self) -> int:
        return self._used_pages

    @property
    def free_pages(self) -> int:
        return self.num_pages - self._used_pages

    @property
    def used_tokens(self) -> int:
        """Token slots actually holding data (excludes page slack)."""
        return self._used_tokens

    @property
    def free_tokens(self) -> int:
        """Token slots still allocatable (whole free pages only)."""
        return self.free_pages * self.page_size

    @property
    def slack_tokens(self) -> int:
        """Allocated-but-unused slots: the internal fragmentation."""
        return self._slack_tokens

    @property
    def page_occupancy(self) -> float:
        """Fraction of pages in use (the figure-12 occupancy metric)."""
        if self.num_pages == 0:
            return 0.0
        return self._used_pages / self.num_pages

    def bytes_for(self, tokens: int) -> int:
        return tokens * self.bytes_per_token

    # ------------------------------------------------------------------
    def pages_needed(self, tokens: int) -> int:
        """Pages a ``tokens``-slot allocation pins (ceil division)."""
        if tokens <= 0:
            return 0
        return -(-tokens // self.page_size)

    def alloc(self, tokens: int) -> PageBlock:
        """Allocate whole pages for ``tokens`` token slots.

        Raises :class:`MemoryError` when not enough free pages exist; the
        caller decides whether to evict and retry (tier stores do).
        """
        if tokens <= 0:
            raise ValueError("allocations must cover at least one token")
        needed = self.pages_needed(tokens)
        if needed > self.free_pages:
            raise MemoryError(
                f"need {needed} pages, only {self.free_pages} free "
                f"(page_size={self.page_size})"
            )
        pages: List[int] = []
        while len(pages) < needed and self._free_list:
            pages.append(self._free_list.pop())
        while len(pages) < needed:
            pages.append(self._next_page)
            self._next_page += 1
        block = PageBlock(block_id=next(self._block_ids), tokens=tokens, pages=tuple(pages))
        self._blocks[block.block_id] = block
        self._used_pages += needed
        self._used_tokens += tokens
        self._slack_tokens += needed * self.page_size - tokens
        return block

    def free(self, block: PageBlock) -> None:
        """Return a block's pages to the free list (LIFO reuse order)."""
        if self._blocks.pop(block.block_id, None) is None:
            raise KeyError(f"block {block.block_id} is not live")
        self._free_list.extend(reversed(block.pages))
        self._used_pages -= block.num_pages
        self._used_tokens -= block.tokens
        self._slack_tokens -= block.num_pages * self.page_size - block.tokens

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Recount everything and compare against the O(1) counters."""
        used_pages = sum(block.num_pages for block in self._blocks.values())
        used_tokens = sum(block.tokens for block in self._blocks.values())
        slack = used_pages * self.page_size - used_tokens
        if used_pages != self._used_pages:
            raise AssertionError(
                f"used_pages drifted: counted {used_pages}, recorded {self._used_pages}"
            )
        if used_tokens != self._used_tokens:
            raise AssertionError(
                f"used_tokens drifted: counted {used_tokens}, recorded {self._used_tokens}"
            )
        if slack != self._slack_tokens:
            raise AssertionError(
                f"slack_tokens drifted: counted {slack}, recorded {self._slack_tokens}"
            )
        if self._used_pages + len(self._free_list) + (self.num_pages - self._next_page) != self.num_pages:
            raise AssertionError("page conservation violated (leak or double free)")
        live_pages = {page for block in self._blocks.values() for page in block.pages}
        if len(live_pages) != used_pages:
            raise AssertionError("two live blocks share a page")
        if live_pages & set(self._free_list):
            raise AssertionError("a live page is also on the free list")
        if self.capacity_tokens != self.num_pages * self.page_size:
            raise AssertionError("capacity not page-aligned")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<PageAllocator pages={self._used_pages}/{self.num_pages} "
            f"page_size={self.page_size} slack={self._slack_tokens}>"
        )
