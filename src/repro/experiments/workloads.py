"""Builders for the evaluation workloads (§5.1).

Each builder returns a :class:`WorkloadSpec` matching one of the paper's
macro-benchmark configurations, with a ``scale`` parameter that shrinks the
client counts proportionally so the same scenario can run as a quick unit
test (scale ~0.05), a benchmark (~0.2) or a full-fidelity experiment (1.0).
"""

from __future__ import annotations

import zlib

from ..workloads import (
    ARENA_LIKE,
    WILDCHAT_LIKE,
    ConversationConfig,
    ConversationWorkload,
    TreeOfThoughtsConfig,
    TreeOfThoughtsWorkload,
)
from .config import WorkloadSpec

__all__ = [
    "build_arena_workload",
    "build_wildchat_workload",
    "build_tot_workload",
    "build_mixed_tree_workload",
    "MACRO_WORKLOAD_BUILDERS",
]

_REGIONS = ("us", "eu", "asia")


def _scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(count * scale)))


def build_arena_workload(scale: float = 1.0, *, seed: int = 0,
                         conversations_per_client: int = 2) -> WorkloadSpec:
    """ChatBot-Arena-like: equal client counts, 80 conversations per region."""
    clients = _scaled(80, scale)
    config = ConversationConfig(
        regions=_REGIONS,
        users_per_region=clients,
        conversations_per_user=conversations_per_client,
        turns_range=(2, 5),
        lengths=ARENA_LIKE,
        shared_templates=6,
        template_adoption=0.5,
        seed=seed,
    )
    return WorkloadSpec(
        name="chatbot-arena",
        programs_by_region=ConversationWorkload(config).programs_by_region(),
        clients_per_region={region: clients for region in _REGIONS},
        hash_key="user",
    )


def build_wildchat_workload(scale: float = 1.0, *, seed: int = 1,
                            conversations_per_client: int = 2) -> WorkloadSpec:
    """WildChat-like: 40 US clients, 30 in Europe and Asia, region-local users."""
    clients = {
        "us": _scaled(40, scale),
        "eu": _scaled(30, scale),
        "asia": _scaled(30, scale),
    }
    programs_by_region = {}
    for region, num_clients in clients.items():
        config = ConversationConfig(
            regions=(region,),
            users_per_region=num_clients,
            conversations_per_user=conversations_per_client,
            turns_range=(2, 6),
            lengths=WILDCHAT_LIKE,
            shared_templates=4,
            template_adoption=0.3,
            seed=seed + zlib.crc32(region.encode("utf-8")) % 1000,
        )
        programs_by_region[region] = ConversationWorkload(config).generate_programs()
    return WorkloadSpec(
        name="wildchat",
        programs_by_region=programs_by_region,
        clients_per_region=clients,
        hash_key="user",
    )


def build_tot_workload(scale: float = 1.0, *, seed: int = 2,
                       trees_per_client: int = 4) -> WorkloadSpec:
    """Tree-of-Thoughts (2-branch, depth 4): 40 US clients, 20 EU, 20 Asia."""
    clients = {
        "us": _scaled(40, scale),
        "eu": _scaled(20, scale),
        "asia": _scaled(20, scale),
    }
    config = TreeOfThoughtsConfig(branching_factor=2, depth=4, seed=seed)
    generator = TreeOfThoughtsWorkload(config)
    programs_by_region = {
        region: generator.generate_programs(count * trees_per_client, region)
        for region, count in clients.items()
    }
    return WorkloadSpec(
        name="tree-of-thoughts",
        programs_by_region=programs_by_region,
        clients_per_region=clients,
        hash_key="session",
    )


def build_mixed_tree_workload(scale: float = 1.0, *, seed: int = 3,
                              trees_per_client: int = 4) -> WorkloadSpec:
    """Mixed Tree: the US runs two clients with large 4-branch trees while
    Europe and Asia keep running 2-branch trees with 20 clients each."""
    big_clients = max(1, int(round(2 * max(scale, 0.5))))
    small_clients = _scaled(20, scale)
    big_config = TreeOfThoughtsConfig(branching_factor=4, depth=4, seed=seed)
    small_config = TreeOfThoughtsConfig(branching_factor=2, depth=4, seed=seed + 1)
    big_count = big_clients * trees_per_client
    small_count = small_clients * trees_per_client
    big = TreeOfThoughtsWorkload(big_config)
    small = TreeOfThoughtsWorkload(small_config)
    programs_by_region = {
        "us": big.generate_programs(big_count, "us", user_prefix="tot4-user"),
        "eu": small.generate_programs(small_count, "eu"),
        "asia": small.generate_programs(small_count, "asia"),
    }
    return WorkloadSpec(
        name="mixed-tree",
        programs_by_region=programs_by_region,
        clients_per_region={"us": big_clients, "eu": small_clients, "asia": small_clients},
        hash_key="session",
    )


MACRO_WORKLOAD_BUILDERS = {
    "chatbot-arena": build_arena_workload,
    "wildchat": build_wildchat_workload,
    "tree-of-thoughts": build_tot_workload,
    "mixed-tree": build_mixed_tree_workload,
}
