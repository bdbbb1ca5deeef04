"""Built-in system registrations: the paper's baselines and SkyWalker.

Each system family gets its own typed config dataclass and registers a
builder with the global registry.  Nothing here is special-cased by the
runner -- these registrations use exactly the same public API available to
third-party systems (see :mod:`repro.experiments.hybrid` for an external
example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..balancers import (
    ConsistentHashBalancer,
    GatewayBalancer,
    LeastLoadBalancer,
    RoundRobinBalancer,
    SGLangRouterBalancer,
)
from ..core import (
    ConsistentHashSelection,
    PrefixTreeSelection,
    SelectionPolicy,
    SkyWalkerBalancer,
    make_pushing_policy,
)
from ..core.interface import BalancerBase
from .registry import BuildContext, SystemSpec, build_regional_mesh, register_system

__all__ = [
    "CentralizedConfig",
    "GatewayConfig",
    "SkyWalkerConfig",
    "build_skywalker_region",
]


# ----------------------------------------------------------------------
# centralized §5.1 baselines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CentralizedConfig(SystemSpec):
    """A single global balancer (Round Robin / Least Load / CH / SGLang)."""

    kind: str = "round-robin"
    #: Region hosting the single balancer.
    central_region: str = "us"


_CENTRALIZED_CLASSES = {
    "round-robin": RoundRobinBalancer,
    "least-load": LeastLoadBalancer,
    "consistent-hash": ConsistentHashBalancer,
    "sglang-router": SGLangRouterBalancer,
}


def _build_centralized(spec: CentralizedConfig, ctx: BuildContext) -> List[BalancerBase]:
    cls = _CENTRALIZED_CLASSES[spec.kind]
    kwargs = {}
    if spec.kind == "consistent-hash":
        kwargs["hash_key_fn"] = ctx.hash_key_fn()
    balancer = cls(
        ctx.env, f"{spec.kind}@{spec.central_region}", spec.central_region, ctx.network, **kwargs
    )
    ctx.attach(balancer)
    return [balancer]


for _kind, _cls in _CENTRALIZED_CLASSES.items():
    register_system(
        _kind,
        config=CentralizedConfig,
        description=f"Centralized {_cls.__name__} baseline (§5.1)",
    )(_build_centralized)


# ----------------------------------------------------------------------
# GKE-Gateway baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GatewayConfig(SystemSpec):
    """Per-region gateways with coarse spill-over (GKE Gateway baseline)."""

    kind: str = "gke-gateway"
    #: Average outstanding per local replica above which traffic spills.
    spill_threshold: float = 16.0


@register_system(
    "gke-gateway",
    config=GatewayConfig,
    description="Multi-cluster gateway with local preference and spill-over (§5.1)",
)
def _build_gateway(spec: GatewayConfig, ctx: BuildContext) -> List[BalancerBase]:
    gateways: List[BalancerBase] = []
    for region in ctx.regions:
        gateway = GatewayBalancer(
            ctx.env,
            f"gateway@{region}",
            region,
            ctx.network,
            spill_threshold=spec.spill_threshold,
        )
        ctx.attach(gateway)
        gateways.append(gateway)
    return gateways


# ----------------------------------------------------------------------
# the SkyWalker family
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SkyWalkerConfig(SystemSpec):
    """SkyWalker and its variants (SkyWalker-CH, Region-Local)."""

    kind: str = "skywalker"
    #: Pushing policy: "BP", "SP-O" or "SP-P".
    pushing: str = "SP-P"
    sp_o_threshold: int = 24
    probe_interval_s: float = 0.1
    prefix_match_threshold: float = 0.5
    trie_max_tokens: int = 2_000_000
    #: Optional routing constraint: None, "gdpr" or "continent".
    constraint: Optional[str] = None
    #: Prefix-affinity escape hatch: a preferred replica is abandoned for
    #: the least-loaded one only when its estimated load exceeds BOTH the
    #: absolute and the relative threshold (defaults match the balancer).
    #: Cranking the absolute threshold sky-high yields a pure
    #: prefix-affinity variant that never escapes -- the gray-failure
    #: benchmark's strawman.
    balance_abs_threshold: int = 8
    balance_rel_threshold: float = 1.5


def build_skywalker_region(
    spec: SkyWalkerConfig,
    ctx: BuildContext,
    region: str,
    *,
    selection_policy: Optional[SelectionPolicy] = None,
    allow_remote: bool = True,
    **extra,
) -> SkyWalkerBalancer:
    """Create one (unstarted, unwired) regional SkyWalker balancer from a
    spec.  Shared by every SkyWalker-family builder, including plugins,
    which choose candidate selection by passing a policy object
    (:class:`PrefixTreeSelection` when ``None``)."""
    pushing_kwargs = {}
    if spec.pushing.upper() == "SP-O":
        pushing_kwargs["max_outstanding"] = spec.sp_o_threshold
    return SkyWalkerBalancer(
        ctx.env,
        f"{spec.kind}@{region}",
        region,
        ctx.network,
        selection_policy=selection_policy,
        pushing_policy=make_pushing_policy(spec.pushing, **pushing_kwargs),
        probe_interval_s=spec.probe_interval_s,
        prefix_match_threshold=spec.prefix_match_threshold,
        trie_max_tokens=spec.trie_max_tokens,
        balance_abs_threshold=spec.balance_abs_threshold,
        balance_rel_threshold=spec.balance_rel_threshold,
        allow_remote=allow_remote,
        constraint=ctx.make_constraint(spec.constraint),
        hash_key_fn=ctx.hash_key_fn(),
        **extra,
    )


def _make_skywalker_builder(selection: SelectionPolicy, allow_remote: bool):
    def builder(spec: SkyWalkerConfig, ctx: BuildContext) -> List[SkyWalkerBalancer]:
        return build_regional_mesh(
            ctx,
            lambda region: build_skywalker_region(
                spec, ctx, region, selection_policy=selection, allow_remote=allow_remote
            ),
        )

    return builder


register_system(
    "skywalker",
    config=SkyWalkerConfig,
    description="SkyWalker: two-layer prefix-tree routing with selective pushing (§3)",
)(_make_skywalker_builder(PrefixTreeSelection(), allow_remote=True))

register_system(
    "skywalker-ch",
    config=SkyWalkerConfig,
    description="SkyWalker-CH: two-layer consistent hashing variant (§3.2)",
)(_make_skywalker_builder(ConsistentHashSelection(), allow_remote=True))

register_system(
    "region-local",
    config=SkyWalkerConfig,
    description="Region-Local: SkyWalker without cross-region offloading (Fig. 10)",
)(_make_skywalker_builder(PrefixTreeSelection(), allow_remote=False))
