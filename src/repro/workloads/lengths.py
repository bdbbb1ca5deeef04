"""Request length distributions.

Fig. 4a of the paper shows the CDFs of input and output lengths in the
WildChat dataset: both are heavy-tailed, with the bulk of inputs below about
1,000 tokens, outputs typically a few hundred tokens, and a long tail out to
several thousand tokens.  We model both with truncated log-normal
distributions whose parameters are chosen to reproduce those qualitative
shapes (median a few hundred tokens, 99th percentile in the thousands).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = ["LengthDistribution", "LengthSampler", "WILDCHAT_LIKE", "ARENA_LIKE", "TOT_LIKE"]


@dataclass(frozen=True)
class LengthDistribution:
    """A truncated log-normal distribution over token counts."""

    median: float
    sigma: float
    minimum: int
    maximum: int

    def sample(self, rng: random.Random) -> int:
        mu = math.log(self.median)
        value = int(round(rng.lognormvariate(mu, self.sigma)))
        return max(self.minimum, min(self.maximum, value))


@dataclass(frozen=True)
class WorkloadLengths:
    """Input (per-turn user message) and output length distributions."""

    user_turn: LengthDistribution
    output: LengthDistribution
    system_prompt: LengthDistribution


#: Matches the WildChat CDF shape in Fig. 4a (long-tailed, multi-turn chat).
WILDCHAT_LIKE = WorkloadLengths(
    user_turn=LengthDistribution(median=160, sigma=1.0, minimum=8, maximum=6000),
    output=LengthDistribution(median=320, sigma=0.9, minimum=1, maximum=7000),
    system_prompt=LengthDistribution(median=350, sigma=0.6, minimum=32, maximum=2000),
)

#: ChatBot Arena conversations: shorter prompts, comparable outputs.
ARENA_LIKE = WorkloadLengths(
    user_turn=LengthDistribution(median=90, sigma=1.1, minimum=4, maximum=4000),
    output=LengthDistribution(median=260, sigma=0.9, minimum=1, maximum=6000),
    system_prompt=LengthDistribution(median=120, sigma=0.5, minimum=16, maximum=800),
)

#: Tree-of-Thoughts on GSM8K: short thoughts, moderate question prompts.
TOT_LIKE = WorkloadLengths(
    user_turn=LengthDistribution(median=70, sigma=0.4, minimum=16, maximum=400),
    output=LengthDistribution(median=120, sigma=0.5, minimum=16, maximum=600),
    system_prompt=LengthDistribution(median=450, sigma=0.2, minimum=200, maximum=900),
)


class LengthSampler:
    """Seedable sampler over a :class:`WorkloadLengths` preset."""

    def __init__(self, lengths: WorkloadLengths = WILDCHAT_LIKE, seed: int = 0) -> None:
        self.lengths = lengths
        self._rng = random.Random(seed)

    def user_turn(self) -> int:
        return self.lengths.user_turn.sample(self._rng)

    def output(self) -> int:
        return self.lengths.output.sample(self._rng)

    def system_prompt(self) -> int:
        return self.lengths.system_prompt.sample(self._rng)
