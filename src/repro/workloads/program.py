"""Programs: the unit of work a client executes.

The paper's clients each run "one program at a time" (§5.1): a multi-turn
conversation, or one Tree-of-Thoughts tree.  A :class:`Program` is a list of
*stages*; requests inside a stage may be issued concurrently (tree levels),
and stages are issued sequentially (turn k+1 only after turn k finished).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from .request import Request

__all__ = ["Program"]


@dataclass
class Program:
    """A sequence of request stages executed by one client."""

    program_id: str
    user_id: str
    region: str
    stages: List[List[Request]] = field(default_factory=list)
    #: Free-form label ("conversation", "tot-2", "tot-4", ...).
    kind: str = "generic"

    def __post_init__(self) -> None:
        for stage in self.stages:
            for request in stage:
                request.program_id = self.program_id

    # ------------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return sum(len(stage) for stage in self.stages)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def all_requests(self) -> Iterator[Request]:
        for stage in self.stages:
            yield from stage

    def clone(self) -> "Program":
        """A fresh copy with pristine requests (no routing/execution state).

        Lets one generated workload be replayed across several system
        variants (``run_sweep``) without the runs contaminating each other
        through the mutable per-request state.
        """
        return Program(
            program_id=self.program_id,
            user_id=self.user_id,
            region=self.region,
            stages=[[request.clone_for_retry() for request in stage] for stage in self.stages],
            kind=self.kind,
        )

    def total_prompt_tokens(self) -> int:
        return sum(r.prompt_len for r in self.all_requests())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Program {self.program_id} kind={self.kind} user={self.user_id} "
            f"stages={self.num_stages} requests={self.num_requests}>"
        )
