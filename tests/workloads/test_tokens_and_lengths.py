"""Unit tests for token-id generation and length distributions."""

import random

import pytest

from repro.workloads import (
    ARENA_LIKE,
    TOT_LIKE,
    WILDCHAT_LIKE,
    LengthDistribution,
    LengthSampler,
    TokenFactory,
)


# ----------------------------------------------------------------------
# TokenFactory
# ----------------------------------------------------------------------
def test_fresh_sequences_are_disjoint():
    factory = TokenFactory()
    a = factory.fresh(100)
    b = factory.fresh(50)
    assert len(a) == 100 and len(b) == 50
    assert not (set(a) & set(b))


def test_fresh_is_deterministic_given_call_sequence():
    first = TokenFactory()
    second = TokenFactory()
    assert first.fresh(10) == second.fresh(10)
    assert first.fresh(5) == second.fresh(5)


def test_fresh_negative_length_rejected():
    with pytest.raises(ValueError):
        TokenFactory().fresh(-1)


def test_issued_counter_tracks_total():
    factory = TokenFactory()
    factory.fresh(10)
    factory.fresh(20)
    assert factory.issued == 30


# ----------------------------------------------------------------------
# Length distributions
# ----------------------------------------------------------------------
def test_samples_respect_bounds():
    dist = LengthDistribution(median=100, sigma=1.5, minimum=10, maximum=500)
    rng = random.Random(0)
    samples = [dist.sample(rng) for _ in range(2000)]
    assert all(10 <= s <= 500 for s in samples)


def test_distribution_median_is_roughly_respected():
    dist = WILDCHAT_LIKE.output
    rng = random.Random(1)
    samples = sorted(dist.sample(rng) for _ in range(4000))
    empirical_median = samples[len(samples) // 2]
    assert dist.median * 0.7 < empirical_median < dist.median * 1.3


def test_output_lengths_are_heavy_tailed():
    """Fig. 4a: the output CDF has a long tail well beyond the median."""
    rng = random.Random(2)
    samples = sorted(WILDCHAT_LIKE.output.sample(rng) for _ in range(4000))
    p50 = samples[int(0.5 * len(samples))]
    p99 = samples[int(0.99 * len(samples))]
    assert p99 > 4 * p50


def test_sampler_is_seed_deterministic():
    a = LengthSampler(TOT_LIKE, seed=7)
    b = LengthSampler(TOT_LIKE, seed=7)
    assert [a.output() for _ in range(20)] == [b.output() for _ in range(20)]
    assert a.user_turn() == b.user_turn()
    assert a.system_prompt() == b.system_prompt()


def test_presets_have_distinct_scales():
    # Arena prompts are shorter than WildChat prompts on average.
    assert ARENA_LIKE.user_turn.median < WILDCHAT_LIKE.user_turn.median
    # ToT system prompts (solver instructions) are comparatively long.
    assert TOT_LIKE.system_prompt.median > TOT_LIKE.user_turn.median
