"""Unit tests for the KV memory manager (admission grants and accounting)."""

import pytest

from repro.replica import KVMemoryManager, TINY_TEST_PROFILE


@pytest.fixture
def memory():
    return KVMemoryManager(TINY_TEST_PROFILE)


def prompt(n, start=0):
    return tuple(range(start, start + n))


def test_admit_grants_cached_and_new_token_counts(memory):
    first = memory.admit(1, prompt(100), now=0.0)
    assert first is not None
    assert first.cached_tokens == 0
    assert first.new_prompt_tokens == 100

    second = memory.admit(2, prompt(120), now=1.0)  # shares the first 100 tokens
    assert second is not None
    assert second.cached_tokens == 100
    assert second.new_prompt_tokens == 20


def test_duplicate_admit_is_rejected(memory):
    memory.admit(1, prompt(10), now=0.0)
    with pytest.raises(ValueError):
        memory.admit(1, prompt(10), now=0.0)


def test_admission_fails_when_memory_is_exhausted(memory):
    capacity = memory.capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    assert memory.admit(1, prompt(big), now=0.0) is not None
    # A second, completely distinct prompt cannot fit while the first runs.
    assert memory.admit(2, prompt(big, start=10_000), now=0.0) is None


def test_release_makes_memory_reusable(memory):
    capacity = memory.capacity_tokens
    big = capacity - TINY_TEST_PROFILE.admission_output_reserve
    assert memory.admit(1, prompt(big), now=0.0) is not None
    memory.release(1, now=1.0)
    # The prefix stays cached but is no longer locked, so a new distinct
    # request can evict it and be admitted.
    assert memory.admit(2, prompt(big, start=10_000), now=2.0) is not None


def test_release_unknown_request_raises(memory):
    with pytest.raises(KeyError):
        memory.release(99, now=0.0)


def test_output_tokens_count_toward_utilization(memory):
    memory.admit(1, prompt(50), now=0.0)
    used_before = memory.used_tokens
    memory.add_output_token(1, count=10)
    assert memory.used_tokens == used_before + 10
    assert memory.context_tokens(1) == 60


def test_add_output_token_requires_running_request(memory):
    with pytest.raises(KeyError):
        memory.add_output_token(123)


def test_utilization_is_bounded(memory):
    memory.admit(1, prompt(200), now=0.0)
    memory.add_output_token(1, count=5)
    assert 0.0 < memory.utilization <= 1.0
    memory.check_invariants()


def test_admit_fits_fresh_prompt(memory):
    assert memory.admit(1, prompt(50), now=0.0) is not None


def test_cached_output_extends_reusable_prefix(memory):
    full_sequence = prompt(80)
    memory.admit(1, prompt(40), now=0.0)
    memory.release(1, now=1.0, cache_output=True, full_sequence=full_sequence)
    grant = memory.admit(2, full_sequence, now=2.0)
    assert grant is not None
    assert grant.cached_tokens == 80
