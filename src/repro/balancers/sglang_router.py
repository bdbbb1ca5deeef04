"""SGLang-Router-style cache-aware load balancer (SGL baseline, §5.1).

The SGLang router keeps an approximate prefix tree per replica and routes a
request to the replica with the best prefix match, unless that replica looks
overloaded relative to the others, in which case it falls back to the
shortest queue.  It is a *centralized*, blind-pushing design: the routing
decision is made immediately and the request is sent straight to the chosen
replica, with no admission control at the balancer.
"""

from __future__ import annotations

from typing import List

from ..core.interface import BalancerBase
from ..core.prefix_tree import PrefixTree
from ..replica import ReplicaServer
from ..workloads.request import Request

__all__ = ["SGLangRouterBalancer"]


class SGLangRouterBalancer(BalancerBase):
    """Cache-aware routing with load-based fallback, as in SGLang v0.4.

    Parameters
    ----------
    cache_threshold:
        Minimum prefix hit ratio for cache-affinity routing to be used.
    balance_abs_threshold / balance_rel_threshold:
        A replica is considered imbalanced when its outstanding count
        exceeds ``balance_abs_threshold`` *and* exceeds
        ``balance_rel_threshold`` times the least-loaded replica; in that
        case the router ignores affinity and picks the shortest queue.
    """

    def __init__(
        self,
        *args,
        cache_threshold: float = 0.5,
        balance_abs_threshold: int = 32,
        balance_rel_threshold: float = 1.5,
        trie_max_tokens: int = 2_000_000,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.cache_threshold = cache_threshold
        self.balance_abs_threshold = balance_abs_threshold
        self.balance_rel_threshold = balance_rel_threshold
        self.tree: PrefixTree[str] = PrefixTree(max_tokens=trie_max_tokens)

    # ------------------------------------------------------------------
    def _shortest_queue(self, candidates: List[ReplicaServer]) -> ReplicaServer:
        return min(
            candidates,
            key=lambda replica: (self.outstanding.get(replica.name, 0), replica.name),
        )

    def select_replica(self, request: Request, candidates: List[ReplicaServer]) -> ReplicaServer:
        by_name = {replica.name: replica for replica in candidates}
        loads = [self.outstanding.get(name, 0) for name in by_name]
        min_load = min(loads) if loads else 0

        match = self.tree.best_target(request.prompt_tokens, by_name.keys())
        chosen: ReplicaServer
        if match.target is not None and match.hit_ratio >= self.cache_threshold:
            matched_load = self.outstanding.get(match.target, 0)
            imbalanced = (
                matched_load > self.balance_abs_threshold
                and matched_load > self.balance_rel_threshold * max(min_load, 1)
            )
            chosen = self._shortest_queue(candidates) if imbalanced else by_name[match.target]
        else:
            chosen = self._shortest_queue(candidates)
        self.tree.insert(request.prompt_tokens, chosen.name)
        return chosen
