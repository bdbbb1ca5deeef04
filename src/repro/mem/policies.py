"""Offload policies for the tiered KV store.

One registry, following the pushing/constraint/selection/fault pattern
(:class:`repro._registry.NameRegistry`): configs carry only the
(picklable) policy *name*, and the policy object is instantiated wherever
the replica is built -- including inside sweep worker processes.  An
**offload policy** decides where an HBM (or host-tier) eviction victim
goes: a lower tier, or nowhere (dropped -- the legacy behaviour).

Built-in offload policies:

``never-offload``
    Victims vanish, exactly like the flat single-tier cache.  This is the
    default and is *legacy-equivalent by construction*: the tiered store
    never installs its eviction hook, so event sequences stay bit-identical.
``lru-demote``
    Victims cascade one tier down (HBM -> host -> disk) in LRU order;
    a tier's own victims continue downward until the bottom tier drops them.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .._registry import NameRegistry

__all__ = [
    "OffloadPolicy",
    "NeverOffload",
    "LruDemote",
    "register_offload_policy",
    "unregister_offload_policy",
    "registered_offload_policies",
    "make_offload_policy",
]


# ----------------------------------------------------------------------
# policy interfaces
# ----------------------------------------------------------------------
class OffloadPolicy:
    """Decides where an eviction victim goes."""

    name: str = "abstract"
    #: Inert policies never offload anything; the store skips the eviction
    #: callback entirely so the hot path stays byte-identical to legacy.
    inert: bool = False

    def demote_target(self, from_tier: str, lower_tiers: Tuple[str, ...]) -> Optional[str]:
        """Tier that should receive this victim, or ``None`` to drop it.

        ``lower_tiers`` lists the non-zero-capacity tiers strictly below
        ``from_tier``, top-down (e.g. ``("host", "disk")`` for an HBM
        victim).  Returning a name not in that tuple is an error.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__}>"


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_OFFLOAD_POLICIES = NameRegistry("offload policy", plural="policies")

PolicyFactory = Callable[..., object]


def register_offload_policy(
    name: str, *, replace_existing: bool = False
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Register an offload-policy factory under ``name`` (case-insensitive).

    Same extension pattern as ``@register_pushing_policy``: decorate a class
    (or no-argument factory) and the name becomes resolvable
    everywhere a built-in is -- ``MemoryConfig.offload`` and
    :func:`make_offload_policy`, including inside sweep workers.
    """
    return _OFFLOAD_POLICIES.register(name, replace_existing=replace_existing)


def unregister_offload_policy(name: str) -> None:
    """Remove a registered offload policy (mainly for test cleanup)."""
    _OFFLOAD_POLICIES.unregister(name)


def registered_offload_policies() -> Tuple[str, ...]:
    return _OFFLOAD_POLICIES.names()


def make_offload_policy(name: str) -> OffloadPolicy:
    """Instantiate a registered offload policy by name."""
    return _OFFLOAD_POLICIES.make(name)


# ----------------------------------------------------------------------
# built-in offload policies
# ----------------------------------------------------------------------
@register_offload_policy("never-offload")
class NeverOffload(OffloadPolicy):
    """Drop every victim -- the legacy single-tier behaviour (default)."""

    name = "never-offload"
    inert = True

    def demote_target(self, from_tier: str, lower_tiers: Tuple[str, ...]) -> Optional[str]:
        return None


@register_offload_policy("lru-demote")
class LruDemote(OffloadPolicy):
    """Cascade victims one tier down; the bottom tier's victims are dropped."""

    name = "lru-demote"

    def demote_target(self, from_tier: str, lower_tiers: Tuple[str, ...]) -> Optional[str]:
        return lower_tiers[0] if lower_tiers else None
