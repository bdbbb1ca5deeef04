"""Multi-turn conversation workloads (WildChat- and ChatBot-Arena-like).

The generator reproduces the *structural* properties of the paper's chat
traces that matter to a prefix-aware balancer:

* every turn's prompt extends the previous turn's prompt (chat history), so
  within-session prefix similarity is very high;
* a user keeps their system prompt/context across conversations, so
  within-user similarity is significant (Fig. 5a: 8--20 %);
* a configurable fraction of users share prompt templates, producing the
  weaker cross-user similarity (Fig. 5a: 2.5--10 %);
* sharing across *regions* is negligible because users live in one region.

Output lengths are sampled from the heavy-tailed distributions in
:mod:`repro.workloads.lengths`, reproducing the unpredictability that breaks
blind pushing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .lengths import ARENA_LIKE, WILDCHAT_LIKE, LengthSampler, WorkloadLengths
from .program import Program
from .request import Request
from .tokens import TokenFactory

__all__ = ["ConversationConfig", "ConversationWorkload", "UserProfile"]


@dataclass(frozen=True)
class ConversationConfig:
    """Parameters of a synthetic multi-turn conversation workload."""

    regions: Tuple[str, ...] = ("us", "eu", "asia")
    users_per_region: int = 20
    conversations_per_user: int = 2
    #: Min/max turns per conversation (uniformly sampled).
    turns_range: Tuple[int, int] = (2, 6)
    lengths: WorkloadLengths = WILDCHAT_LIKE
    #: Number of shared prompt templates per region; 0 disables cross-user
    #: sharing entirely.
    shared_templates: int = 4
    #: Probability a user adopts one of the shared templates instead of a
    #: private system prompt.
    template_adoption: float = 0.35
    #: Probability a shared template is global rather than region-local
    #: (controls the small cross-region similarity in Fig. 5a).
    global_template_fraction: float = 0.15
    seed: int = 0


@dataclass
class UserProfile:
    """A synthetic user: identity plus their persistent prompt context."""

    user_id: str
    region: str
    system_tokens: Tuple[int, ...]
    uses_shared_template: bool


def arena_config(**overrides) -> ConversationConfig:
    """Convenience preset approximating the ChatBot Arena workload (§5.1)."""
    defaults = dict(
        lengths=ARENA_LIKE,
        shared_templates=6,
        template_adoption=0.5,
        turns_range=(2, 5),
    )
    defaults.update(overrides)
    return ConversationConfig(**defaults)


class ConversationWorkload:
    """Generates users and their conversation programs."""

    def __init__(self, config: ConversationConfig = ConversationConfig()) -> None:
        self.config = config
        self._rng = random.Random(config.seed)
        self._tokens = TokenFactory()
        self._lengths = LengthSampler(config.lengths, seed=config.seed + 1)
        self._global_templates: List[Tuple[int, ...]] = []
        self._regional_templates: Dict[str, List[Tuple[int, ...]]] = {}
        self.users: List[UserProfile] = []
        self._build_templates()
        self._build_users()

    # ------------------------------------------------------------------
    def _build_templates(self) -> None:
        config = self.config
        for region in config.regions:
            templates: List[Tuple[int, ...]] = []
            for _ in range(config.shared_templates):
                length = self._lengths.system_prompt()
                if self._rng.random() < config.global_template_fraction:
                    if not self._global_templates:
                        self._global_templates.append(self._tokens.fresh(length))
                    templates.append(self._rng.choice(self._global_templates))
                else:
                    templates.append(self._tokens.fresh(length))
            self._regional_templates[region] = templates

    def _build_users(self) -> None:
        config = self.config
        for region in config.regions:
            for index in range(config.users_per_region):
                adopt = (
                    config.shared_templates > 0
                    and self._rng.random() < config.template_adoption
                )
                if adopt:
                    system = self._rng.choice(self._regional_templates[region])
                else:
                    system = self._tokens.fresh(self._lengths.system_prompt())
                self.users.append(
                    UserProfile(
                        user_id=f"{region}-user-{index}",
                        region=region,
                        system_tokens=system,
                        uses_shared_template=adopt,
                    )
                )

    # ------------------------------------------------------------------
    def generate_conversation(self, user: UserProfile, conversation_index: int) -> Program:
        """One multi-turn conversation program for ``user``."""
        config = self.config
        turns = self._rng.randint(*config.turns_range)
        session_id = f"{user.user_id}/conv-{conversation_index}"
        history: Tuple[int, ...] = user.system_tokens
        stages: List[List[Request]] = []
        for _turn in range(turns):
            user_msg = self._tokens.fresh(self._lengths.user_turn())
            prompt = history + user_msg
            output_len = self._lengths.output()
            request = Request(
                prompt_tokens=prompt,
                output_len=output_len,
                user_id=user.user_id,
                session_id=session_id,
                region=user.region,
            )
            stages.append([request])
            # The assistant's reply becomes part of the next turn's history.
            assistant_msg = self._tokens.fresh(output_len)
            history = prompt + assistant_msg
        return Program(
            program_id=session_id,
            user_id=user.user_id,
            region=user.region,
            stages=stages,
            kind="conversation",
        )

    def generate_programs(self) -> List[Program]:
        """All conversations of all users, interleaved per region."""
        programs: List[Program] = []
        for user in self.users:
            for index in range(self.config.conversations_per_user):
                programs.append(self.generate_conversation(user, index))
        return programs

    def programs_by_region(self) -> Dict[str, List[Program]]:
        grouped: Dict[str, List[Program]] = {region: [] for region in self.config.regions}
        for program in self.generate_programs():
            grouped[program.region].append(program)
        return grouped
