"""Tree-of-Thoughts workloads (GSM8K-style multi-step reasoning, §5.1).

One program is one tree: the root prompt contains the system instructions
and the question; every node expands its parent's context with the parent's
generated "thought", so all nodes of a tree share long prefixes with their
ancestors and siblings.  With branching factor *b* and depth 4 the tree has
``1 + b + b^2 + b^3`` requests: 15 for the 2-branch trees and 85 for the
4-branch trees, matching the paper's setup.  All nodes at the same depth can
execute concurrently (one stage per depth).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .lengths import TOT_LIKE, LengthSampler, WorkloadLengths
from .program import Program
from .request import Request
from .tokens import TokenFactory

__all__ = ["TreeOfThoughtsConfig", "TreeOfThoughtsWorkload"]


@dataclass(frozen=True)
class TreeOfThoughtsConfig:
    """Parameters of a Tree-of-Thoughts workload."""

    branching_factor: int = 2
    depth: int = 4
    lengths: WorkloadLengths = TOT_LIKE
    #: A single system prompt shared by every tree of this workload (the ToT
    #: solver uses one fixed instruction template).
    shared_system_prompt: bool = True
    seed: int = 0


class TreeOfThoughtsWorkload:
    """Generates tree-structured reasoning programs."""

    def __init__(self, config: TreeOfThoughtsConfig = TreeOfThoughtsConfig()) -> None:
        if config.branching_factor < 1:
            raise ValueError("branching_factor must be at least 1")
        if config.depth < 1:
            raise ValueError("depth must be at least 1")
        self.config = config
        self._rng = random.Random(config.seed)
        self._tokens = TokenFactory()
        self._lengths = LengthSampler(config.lengths, seed=config.seed + 29)
        self._system_tokens: Tuple[int, ...] = (
            self._tokens.fresh(self._lengths.system_prompt())
            if config.shared_system_prompt
            else ()
        )

    # ------------------------------------------------------------------
    def generate_tree(self, question_id: str, user_id: str, region: str) -> Program:
        """One tree program for one question."""
        config = self.config
        question = self._tokens.fresh(self._lengths.user_turn())
        root_prompt = self._system_tokens + question

        stages: List[List[Request]] = []
        # Each frontier entry is the prompt context of a node to expand.
        frontier: List[Tuple[int, ...]] = [root_prompt]
        for _depth in range(config.depth):
            stage: List[Request] = []
            next_frontier: List[Tuple[int, ...]] = []
            for context in frontier:
                output_len = self._lengths.output()
                request = Request(
                    prompt_tokens=context,
                    output_len=output_len,
                    user_id=user_id,
                    session_id=question_id,
                    region=region,
                )
                stage.append(request)
                thought = self._tokens.fresh(output_len)
                for _branch in range(config.branching_factor):
                    # Every child continues from the parent's context plus the
                    # parent's generated thought and a short branch-specific
                    # continuation marker.
                    marker = self._tokens.fresh(4)
                    next_frontier.append(context + thought + marker)
            stages.append(stage)
            frontier = next_frontier
        return Program(
            program_id=question_id,
            user_id=user_id,
            region=region,
            stages=stages,
            kind=f"tot-{config.branching_factor}",
        )

    def generate_programs(self, count: int, region: str, *, user_prefix: str = "tot-user") -> List[Program]:
        """``count`` independent trees issued from ``region``."""
        programs: List[Program] = []
        for index in range(count):
            question_id = f"{region}/question-{self.config.branching_factor}b-{index}"
            user_id = f"{region}/{user_prefix}-{index}"
            programs.append(self.generate_tree(question_id, user_id, region))
        return programs
