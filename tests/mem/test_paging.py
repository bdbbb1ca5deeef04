"""Edge-case tests for the page-aligned KV allocator."""

import pytest

from repro.mem import PageAllocator, round_to_pages


# ----------------------------------------------------------------------
# capacity rounding (sglang's max_total_num_tokens // page_size * page_size)
# ----------------------------------------------------------------------
def test_capacity_rounds_down_to_whole_pages():
    assert round_to_pages(103, 16) == 96
    assert round_to_pages(96, 16) == 96
    assert round_to_pages(15, 16) == 0
    assert round_to_pages(103, 1) == 103


def test_round_to_pages_rejects_bad_page_size():
    with pytest.raises(ValueError):
        round_to_pages(100, 0)
    with pytest.raises(ValueError):
        round_to_pages(100, -4)


def test_allocator_capacity_is_page_rounded():
    alloc = PageAllocator(103, page_size=16)
    assert alloc.capacity_tokens == 96
    assert alloc.num_pages == 6
    assert alloc.free_pages == 6


# ----------------------------------------------------------------------
# page_size=1 is exactly the legacy token-granular accounting
# ----------------------------------------------------------------------
def test_page_size_one_matches_token_accounting():
    alloc = PageAllocator(100, page_size=1)
    blocks = [alloc.alloc(n) for n in (7, 13, 30)]
    assert alloc.used_tokens == 50
    assert alloc.used_pages == 50
    assert alloc.slack_tokens == 0  # no internal fragmentation ever
    assert alloc.free_tokens == 50
    alloc.free(blocks[1])
    assert alloc.used_tokens == 37
    assert alloc.slack_tokens == 0
    alloc.check_invariants()


def test_page_size_one_never_rejects_what_token_count_allows():
    alloc = PageAllocator(10, page_size=1)
    alloc.alloc(9)
    assert alloc.pages_needed(1) <= alloc.free_pages
    assert alloc.pages_needed(2) > alloc.free_pages


# ----------------------------------------------------------------------
# internal fragmentation with page_size > 1
# ----------------------------------------------------------------------
def test_partial_pages_create_slack():
    alloc = PageAllocator(64, page_size=16)
    block = alloc.alloc(17)  # 2 pages, 15 tokens of slack
    assert block.num_pages == 2
    assert alloc.used_tokens == 17
    assert alloc.used_pages == 2
    assert alloc.slack_tokens == 15
    alloc.check_invariants()


def test_fragmentation_can_reject_token_feasible_alloc():
    # 4 pages of 16: three 17-token blocks hold 51 tokens on 2 pages each
    # -- token-wise 13 more fit, page-wise nothing does.
    alloc = PageAllocator(96, page_size=16)
    for _ in range(3):
        alloc.alloc(17)
    assert alloc.free_tokens + alloc.slack_tokens >= 13
    with pytest.raises(MemoryError):
        alloc.alloc(13)


def test_interleaved_alloc_free_reuses_pages_lifo():
    alloc = PageAllocator(64, page_size=16)
    a = alloc.alloc(16)
    b = alloc.alloc(16)
    alloc.free(a)
    c = alloc.alloc(16)
    # The freed block's page comes back first (LIFO free list).
    assert c.pages == a.pages
    assert b.pages != c.pages
    alloc.check_invariants()


def test_free_all_then_refill_to_capacity():
    alloc = PageAllocator(128, page_size=16)
    blocks = [alloc.alloc(16) for _ in range(8)]
    assert alloc.free_pages == 0
    for block in blocks:
        alloc.free(block)
    assert alloc.used_tokens == 0
    assert alloc.free_pages == 8
    refilled = [alloc.alloc(32) for _ in range(4)]
    assert alloc.free_pages == 0
    assert {page for blk in refilled for page in blk.pages} == {
        page for blk in blocks for page in blk.pages
    }
    alloc.check_invariants()


# ----------------------------------------------------------------------
# error paths and byte accounting
# ----------------------------------------------------------------------
def test_double_free_raises():
    alloc = PageAllocator(32, page_size=16)
    block = alloc.alloc(16)
    alloc.free(block)
    with pytest.raises(KeyError):
        alloc.free(block)


def test_zero_or_negative_alloc_rejected():
    alloc = PageAllocator(32, page_size=16)
    with pytest.raises(ValueError):
        alloc.alloc(0)
    with pytest.raises(ValueError):
        alloc.alloc(-1)


def test_bytes_accounting_follows_used_tokens():
    alloc = PageAllocator(64, page_size=16, bytes_per_token=128)
    alloc.alloc(20)
    assert alloc.bytes_for(10) == 1280


def test_page_occupancy():
    alloc = PageAllocator(64, page_size=16)
    assert alloc.page_occupancy == 0.0
    alloc.alloc(32)
    assert alloc.page_occupancy == pytest.approx(0.5)
