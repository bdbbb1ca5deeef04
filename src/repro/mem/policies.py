"""Offload and admission policies for the tiered KV store.

Two registries, following the pushing/constraint/selection/fault pattern
(:class:`repro._registry.NameRegistry`): configs carry only the
(picklable) policy *name* plus scalar knobs, and the policy object is
instantiated wherever the replica is built -- including inside sweep worker
processes.

* An **offload policy** decides where an HBM (or host-tier) eviction victim
  goes: a lower tier, or nowhere (dropped -- the legacy behaviour).
* An **admission policy** decides whether a lower tier accepts a segment a
  policy wants to place there (size caps, hotness gates, ...).

Built-in offload policies:

``never-offload``
    Victims vanish, exactly like the flat single-tier cache.  This is the
    default and is *legacy-equivalent by construction*: the tiered store is
    never even built, so event sequences stay bit-identical.
``lru-demote``
    Victims cascade one tier down (HBM -> host -> disk) in LRU order;
    a tier's own victims continue downward until the bottom tier drops them.
``pin-hot-prefixes``
    Victims with at least ``hot_hits`` lifetime prefix hits demote to the
    uppermost lower tier and are *pinned* there (skipped by that tier's
    eviction while anything unpinned remains); cold victims go straight to
    the bottom tier.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

from .._registry import NameRegistry

__all__ = [
    "SegmentMeta",
    "OffloadPolicy",
    "AdmissionPolicy",
    "NeverOffload",
    "LruDemote",
    "PinHotPrefixes",
    "AdmitAll",
    "SizeCap",
    "register_offload_policy",
    "unregister_offload_policy",
    "registered_offload_policies",
    "make_offload_policy",
    "register_admission_policy",
    "unregister_admission_policy",
    "registered_admission_policies",
    "make_admission_policy",
]


class SegmentMeta(NamedTuple):
    """What policies may know about a KV segment being moved."""

    num_tokens: int
    #: Lifetime prefix-hit count of the segment's deepest node.
    hits: int
    #: Simulation time of the segment's last touch.
    last_access: float


# ----------------------------------------------------------------------
# policy interfaces
# ----------------------------------------------------------------------
class OffloadPolicy:
    """Decides where an eviction victim goes (and whether it is pinned)."""

    name: str = "abstract"
    #: Inert policies never offload anything; the store skips the eviction
    #: callback entirely so the hot path stays byte-identical to legacy.
    inert: bool = False

    def demote_target(
        self, meta: SegmentMeta, from_tier: str, lower_tiers: Tuple[str, ...]
    ) -> Optional[str]:
        """Tier that should receive this victim, or ``None`` to drop it.

        ``lower_tiers`` lists the non-zero-capacity tiers strictly below
        ``from_tier``, top-down (e.g. ``("host", "disk")`` for an HBM
        victim).  Returning a name not in that tuple is an error.
        """
        raise NotImplementedError

    def pin(self, meta: SegmentMeta, tier: str) -> bool:
        """Should the receiving tier pin this segment against eviction?"""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__}>"


class AdmissionPolicy:
    """Decides whether a tier accepts a segment offered to it."""

    name: str = "abstract"

    def admit(self, meta: SegmentMeta, tier: str) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__}>"


# ----------------------------------------------------------------------
# the registries
# ----------------------------------------------------------------------
_OFFLOAD_POLICIES = NameRegistry("offload policy", plural="policies")
_ADMISSION_POLICIES = NameRegistry("admission policy", plural="policies")

PolicyFactory = Callable[..., object]


def register_offload_policy(
    name: str, *, replace_existing: bool = False
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Register an offload-policy factory under ``name`` (case-insensitive).

    Same extension pattern as ``@register_pushing_policy``: decorate a class
    (or factory taking keyword arguments) and the name becomes resolvable
    everywhere a built-in is -- ``MemoryConfig.offload`` and
    :func:`make_offload_policy`, including inside sweep workers.
    """
    return _OFFLOAD_POLICIES.register(name, replace_existing=replace_existing)


def unregister_offload_policy(name: str) -> None:
    """Remove a registered offload policy (mainly for test cleanup)."""
    _OFFLOAD_POLICIES.unregister(name)


def registered_offload_policies() -> Tuple[str, ...]:
    return _OFFLOAD_POLICIES.names()


def make_offload_policy(name: str, **kwargs) -> OffloadPolicy:
    """Instantiate a registered offload policy by name."""
    return _OFFLOAD_POLICIES.make(name, **kwargs)


def register_admission_policy(
    name: str, *, replace_existing: bool = False
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Register an admission-policy factory under ``name``."""
    return _ADMISSION_POLICIES.register(name, replace_existing=replace_existing)


def unregister_admission_policy(name: str) -> None:
    _ADMISSION_POLICIES.unregister(name)


def registered_admission_policies() -> Tuple[str, ...]:
    return _ADMISSION_POLICIES.names()


def make_admission_policy(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate a registered admission policy by name."""
    return _ADMISSION_POLICIES.make(name, **kwargs)


# ----------------------------------------------------------------------
# built-in offload policies
# ----------------------------------------------------------------------
@register_offload_policy("never-offload")
class NeverOffload(OffloadPolicy):
    """Drop every victim -- the legacy single-tier behaviour (default)."""

    name = "never-offload"
    inert = True

    def demote_target(
        self, meta: SegmentMeta, from_tier: str, lower_tiers: Tuple[str, ...]
    ) -> Optional[str]:
        return None


@register_offload_policy("lru-demote")
class LruDemote(OffloadPolicy):
    """Cascade victims one tier down; the bottom tier's victims are dropped."""

    name = "lru-demote"

    def demote_target(
        self, meta: SegmentMeta, from_tier: str, lower_tiers: Tuple[str, ...]
    ) -> Optional[str]:
        return lower_tiers[0] if lower_tiers else None


@register_offload_policy("pin-hot-prefixes")
class PinHotPrefixes(OffloadPolicy):
    """Keep frequently re-matched prefixes close: hot victims demote one
    tier and are pinned there; cold victims sink to the bottom tier.

    Parameters
    ----------
    hot_hits:
        Minimum lifetime prefix-hit count for a victim to count as hot.
    """

    name = "pin-hot-prefixes"

    def __init__(self, hot_hits: int = 2) -> None:
        if hot_hits < 1:
            raise ValueError("hot_hits must be at least 1")
        self.hot_hits = hot_hits

    def demote_target(
        self, meta: SegmentMeta, from_tier: str, lower_tiers: Tuple[str, ...]
    ) -> Optional[str]:
        if not lower_tiers:
            return None
        if meta.hits >= self.hot_hits:
            return lower_tiers[0]
        return lower_tiers[-1]

    def pin(self, meta: SegmentMeta, tier: str) -> bool:
        return meta.hits >= self.hot_hits

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<PinHotPrefixes hot_hits={self.hot_hits}>"


# ----------------------------------------------------------------------
# built-in admission policies
# ----------------------------------------------------------------------
@register_admission_policy("admit-all")
class AdmitAll(AdmissionPolicy):
    """Accept every offered segment (default)."""

    name = "admit-all"

    def admit(self, meta: SegmentMeta, tier: str) -> bool:
        return True


@register_admission_policy("size-cap")
class SizeCap(AdmissionPolicy):
    """Reject segments longer than ``max_tokens`` (huge one-off prompts
    would churn a small host tier without ever being re-matched)."""

    name = "size-cap"

    def __init__(self, max_tokens: int = 8192) -> None:
        if max_tokens < 1:
            raise ValueError("max_tokens must be at least 1")
        self.max_tokens = max_tokens

    def admit(self, meta: SegmentMeta, tier: str) -> bool:
        return meta.num_tokens <= self.max_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<SizeCap max_tokens={self.max_tokens}>"
