"""``skywalker-hybrid``: a system registered purely through the public API.

This module is the registry's extensibility proof: it adds a new balancer
system -- prefix-tree routing whose *match score* is discounted by how much
busier the matched replica is than the lightest one, with a least-load
fallback when the score drops below threshold -- without touching the
runner, the registry internals, or any central kind enum.  Everything it
uses (``register_system``, ``build_regional_mesh``, the SkyWalker balancer
and its ``selection_policy`` plug-in point) is public.

Compared to plain SkyWalker, which only abandons prefix affinity when the
preferred replica is *severely* imbalanced (a hard threshold pair), the
hybrid policy trades affinity against load continuously: a strong prefix
match tolerates some extra load, a marginal one does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core import PrefixTreeSelection, SkyWalkerBalancer
from ..replica import ReplicaServer
from ..workloads.request import Request
from .registry import BuildContext, build_regional_mesh, register_system
from .systems import SkyWalkerConfig, build_skywalker_region

__all__ = ["HybridSelection", "SkyWalkerHybridConfig"]


class HybridSelection(PrefixTreeSelection):
    """Prefix-tree routing scored against load, with least-load fallback.

    For the best prefix match the policy computes

    ``score = hit_ratio - load_weight * (load(match) - load(lightest))``

    and routes to the matched replica only when ``score`` clears
    ``match_threshold``; otherwise it falls back to the least-loaded
    available replica.  Cross-region peer selection is inherited from the
    prefix-tree policy (regional snapshots keep working unchanged).
    """

    routing = "hybrid"
    maintains_prefix_trees = True

    def __init__(self, match_threshold: float = 0.3, load_weight: float = 0.1) -> None:
        self.match_threshold = match_threshold
        self.load_weight = load_weight

    def select_replica(
        self, balancer: SkyWalkerBalancer, request: Request, candidates: List[ReplicaServer]
    ) -> ReplicaServer:
        by_name = {replica.name: replica for replica in candidates}
        match = balancer.replica_trie.best_target(request.prompt_tokens, by_name.keys())
        if match.target is not None:
            matched_load = balancer.estimated_load(by_name[match.target])
            lightest = min(balancer.estimated_load(replica) for replica in candidates)
            score = match.hit_ratio - self.load_weight * (matched_load - lightest)
            if score >= self.match_threshold:
                return by_name[match.target]
        return balancer.least_loaded(candidates)


@dataclass(frozen=True)
class SkyWalkerHybridConfig(SkyWalkerConfig):
    """SkyWalker knobs plus the hybrid score parameters."""

    kind: str = "skywalker-hybrid"
    #: Minimum load-discounted match score for affinity routing.
    hybrid_match_threshold: float = 0.3
    #: Outstanding-request penalty per unit of extra load on the match.
    hybrid_load_weight: float = 0.1


@register_system(
    "skywalker-hybrid",
    config=SkyWalkerHybridConfig,
    description="Prefix-tree routing with load-discounted match scores and least-load fallback",
)
def _build_skywalker_hybrid(
    spec: SkyWalkerHybridConfig, ctx: BuildContext
) -> List[SkyWalkerBalancer]:
    selection = HybridSelection(
        match_threshold=spec.hybrid_match_threshold,
        load_weight=spec.hybrid_load_weight,
    )
    return build_regional_mesh(
        ctx,
        lambda region: build_skywalker_region(
            spec, ctx, region, selection_policy=selection
        ),
    )
