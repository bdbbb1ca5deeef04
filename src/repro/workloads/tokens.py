"""Synthetic token-id generation with controllable prefix sharing.

The simulator has no tokenizer: prompts are tuples of integer token ids, and
two requests share a prefix exactly when their tuples share a prefix.  This
module hands out *disjoint* id ranges for independent pieces of text, so the
workload generators can compose prompts whose sharing structure is exact and
auditable (e.g. "all users in this workload share this 300-token system
prompt; each user additionally has a private 200-token context").
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["TokenFactory"]


class TokenFactory:
    """Produces fresh, never-repeating token sequences.

    Every call to :meth:`fresh` returns ids from a new, disjoint range, so
    independently generated text never accidentally shares tokens.  The
    factory is deterministic given its call sequence.
    """

    def __init__(self, *, start: int = 1) -> None:
        self._next_id = start

    def fresh(self, length: int) -> Tuple[int, ...]:
        """A fresh run of ``length`` token ids (monotonically increasing)."""
        if length < 0:
            raise ValueError("length must be non-negative")
        tokens = tuple(range(self._next_id, self._next_id + length))
        self._next_id += length
        return tokens

    @property
    def issued(self) -> int:
        """Total number of token ids issued so far."""
        return self._next_id - 1
