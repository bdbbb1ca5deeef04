"""Unit tests for the analytical model profiles."""

import pytest

from repro.replica import LLAMA_8B_A100, LLAMA_8B_L4, TINY_TEST_PROFILE, ModelProfile


def test_l4_profile_matches_paper_prefill_number():
    # §2.1: a 512-token prompt takes roughly 300 ms on the L4.
    assert LLAMA_8B_L4.prefill_time(512) == pytest.approx(0.32, abs=0.05)


def test_prefill_time_is_monotonic_in_tokens():
    previous = 0.0
    for tokens in (1, 16, 128, 512, 2048):
        current = LLAMA_8B_L4.prefill_time(tokens)
        assert current > previous
        previous = current


def test_prefill_of_fully_cached_prompt_is_one_step():
    fully_cached = LLAMA_8B_L4.prefill_time(0)
    assert 0 < fully_cached < LLAMA_8B_L4.prefill_time(64)


def test_prefill_rejects_negative_tokens():
    with pytest.raises(ValueError):
        LLAMA_8B_L4.prefill_time(-1)


def test_decode_step_grows_with_batch_and_context():
    small = LLAMA_8B_L4.decode_step_time(1, 500)
    larger_batch = LLAMA_8B_L4.decode_step_time(16, 500)
    larger_context = LLAMA_8B_L4.decode_step_time(1, 50_000)
    assert larger_batch > small
    assert larger_context > small


def test_decode_step_requires_a_sequence():
    with pytest.raises(ValueError):
        LLAMA_8B_L4.decode_step_time(0, 0)


def test_kv_capacity_supports_tens_of_concurrent_requests():
    # §3.3: the L4 replica hosts roughly 20-50 outstanding requests whose
    # combined footprint is a few thousand tokens each.
    capacity = LLAMA_8B_L4.kv_capacity_tokens
    assert 20_000 < capacity < 200_000


def test_a100_is_faster_and_larger_than_l4():
    assert LLAMA_8B_A100.prefill_time(512) < LLAMA_8B_L4.prefill_time(512)
    assert LLAMA_8B_A100.kv_capacity_tokens > LLAMA_8B_L4.kv_capacity_tokens


def test_profile_with_oversized_weights_is_rejected():
    profile = ModelProfile(
        name="broken",
        prefill_base_s=0.01,
        prefill_per_token_s=0.001,
        decode_base_s=0.01,
        decode_per_seq_s=0.001,
        decode_per_kilotoken_s=0.001,
        kv_bytes_per_token=1,
        gpu_memory_bytes=100,
        weight_memory_bytes=200,
    )
    with pytest.raises(ValueError):
        _ = profile.kv_capacity_tokens


def test_tiny_profile_is_small_enough_to_stress_memory():
    assert TINY_TEST_PROFILE.kv_capacity_tokens < 5_000
