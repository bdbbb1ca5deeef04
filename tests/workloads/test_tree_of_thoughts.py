"""Unit tests for the Tree-of-Thoughts workload generator."""

import pytest

from repro.workloads import TreeOfThoughtsConfig, TreeOfThoughtsWorkload


def test_two_branch_tree_has_fifteen_requests():
    config = TreeOfThoughtsConfig(branching_factor=2, depth=4)
    workload = TreeOfThoughtsWorkload(config)
    program = workload.generate_tree("q0", "user-0", "us")
    assert program.num_requests == 15
    assert [len(stage) for stage in program.stages] == [1, 2, 4, 8]


def test_four_branch_tree_has_eighty_five_requests():
    config = TreeOfThoughtsConfig(branching_factor=4, depth=4)
    program = TreeOfThoughtsWorkload(config).generate_tree("q0", "user-0", "us")
    assert program.num_requests == 85
    assert [len(stage) for stage in program.stages] == [1, 4, 16, 64]


def test_children_extend_some_parent_prompt():
    workload = TreeOfThoughtsWorkload(TreeOfThoughtsConfig(branching_factor=2, depth=3, seed=1))
    program = workload.generate_tree("q1", "user-1", "eu")
    for parent_stage, child_stage in zip(program.stages, program.stages[1:]):
        parent_prompts = [r.prompt_tokens for r in parent_stage]
        for child in child_stage:
            assert any(
                child.prompt_tokens[: len(parent)] == parent for parent in parent_prompts
            ), "every child prompt must extend one of the parent prompts"


def test_all_nodes_share_the_root_context():
    workload = TreeOfThoughtsWorkload(TreeOfThoughtsConfig(branching_factor=2, depth=4, seed=2))
    program = workload.generate_tree("q2", "user-2", "asia")
    root_prompt = program.stages[0][0].prompt_tokens
    for request in program.all_requests():
        assert request.prompt_tokens[: len(root_prompt)] == root_prompt


def test_trees_share_the_system_prompt_but_not_the_question():
    workload = TreeOfThoughtsWorkload(TreeOfThoughtsConfig(branching_factor=2, depth=3, seed=3))
    first = workload.generate_tree("qa", "user-a", "us")
    second = workload.generate_tree("qb", "user-b", "us")
    prompt_a = first.stages[0][0].prompt_tokens
    prompt_b = second.stages[0][0].prompt_tokens
    # Shared solver instructions produce a common prefix, but the questions
    # themselves (and thus the full prompts) differ.
    common = 0
    for a, b in zip(prompt_a, prompt_b):
        if a != b:
            break
        common += 1
    assert common > 0
    assert prompt_a != prompt_b


def test_session_id_is_the_question_id():
    workload = TreeOfThoughtsWorkload(TreeOfThoughtsConfig(branching_factor=2, depth=3))
    program = workload.generate_tree("question-7", "user-7", "us")
    assert all(r.session_id == "question-7" for r in program.all_requests())


def test_generate_programs_counts_and_regions():
    workload = TreeOfThoughtsWorkload(TreeOfThoughtsConfig(branching_factor=2, depth=3))
    programs = workload.generate_programs(5, "eu")
    assert len(programs) == 5
    assert all(p.region == "eu" for p in programs)
    assert len({p.program_id for p in programs}) == 5
    assert all(p.kind == "tot-2" for p in programs)


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        TreeOfThoughtsWorkload(TreeOfThoughtsConfig(branching_factor=0))
    with pytest.raises(ValueError):
        TreeOfThoughtsWorkload(TreeOfThoughtsConfig(depth=0))
