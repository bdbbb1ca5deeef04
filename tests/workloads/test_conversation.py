"""Unit tests for the multi-turn conversation workload generator."""

import pytest

from repro.analysis import analyze_similarity
from repro.workloads import ConversationConfig, ConversationWorkload


@pytest.fixture(scope="module")
def workload():
    config = ConversationConfig(
        regions=("us", "eu", "asia"),
        users_per_region=6,
        conversations_per_user=2,
        turns_range=(2, 4),
        seed=42,
    )
    return ConversationWorkload(config)


def test_user_population_per_region(workload):
    assert len(workload.users) == 18
    assert sum(user.region == "us" for user in workload.users) == 6
    assert {user.region for user in workload.users} == {"us", "eu", "asia"}


def test_each_turn_extends_the_previous_prompt(workload):
    user = workload.users[0]
    program = workload.generate_conversation(user, 0)
    prompts = [stage[0].prompt_tokens for stage in program.stages]
    for earlier, later in zip(prompts, prompts[1:]):
        assert later[: len(earlier)] == earlier
        assert len(later) > len(earlier)


def test_turns_share_the_user_system_prompt(workload):
    user = workload.users[3]
    first = workload.generate_conversation(user, 0)
    second = workload.generate_conversation(user, 1)
    system = user.system_tokens
    for program in (first, second):
        for stage in program.stages:
            assert stage[0].prompt_tokens[: len(system)] == system


def test_programs_carry_identity_and_region(workload):
    programs = workload.generate_programs()
    assert len(programs) == 18 * 2
    for program in programs:
        assert program.kind == "conversation"
        for request in program.all_requests():
            assert request.user_id == program.user_id
            assert request.region == program.region
            assert request.session_id == program.program_id
            assert request.output_len >= 1


def test_programs_by_region_grouping(workload):
    grouped = workload.programs_by_region()
    assert set(grouped) == {"us", "eu", "asia"}
    for region, programs in grouped.items():
        assert all(p.region == region for p in programs)
        assert len(programs) == 12


def test_turn_count_respects_configuration(workload):
    for program in workload.generate_programs():
        assert 2 <= program.num_stages <= 4


def test_generation_is_deterministic_per_seed():
    config = ConversationConfig(users_per_region=3, conversations_per_user=1, seed=7)
    a = ConversationWorkload(config).generate_programs()
    b = ConversationWorkload(config).generate_programs()
    assert [p.program_id for p in a] == [p.program_id for p in b]
    assert [r.prompt_tokens for p in a for r in p.all_requests()] == [
        r.prompt_tokens for p in b for r in p.all_requests()
    ]


def test_similarity_structure_matches_paper_ordering():
    """Fig. 5a: within-user similarity far exceeds cross-user, which exceeds
    cross-region similarity."""
    config = ConversationConfig(
        regions=("us", "eu", "asia"),
        users_per_region=8,
        conversations_per_user=2,
        turns_range=(2, 4),
        shared_templates=4,
        template_adoption=0.4,
        seed=11,
    )
    requests = [
        request
        for program in ConversationWorkload(config).generate_programs()
        for request in program.all_requests()
    ]
    report = analyze_similarity(requests, seed=1)
    assert report.within_user > report.across_user
    assert report.within_user > 2 * report.across_region
    assert report.within_user > 0.05


def test_zero_shared_templates_disables_cross_user_sharing():
    config = ConversationConfig(
        regions=("us",),
        users_per_region=6,
        conversations_per_user=1,
        shared_templates=0,
        seed=3,
    )
    workload = ConversationWorkload(config)
    assert all(not user.uses_shared_template for user in workload.users)
