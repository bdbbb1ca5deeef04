"""Pushing policies: when may a load balancer hand a request to a replica?

The paper contrasts three strategies (§3.3, Fig. 9):

* **Blind pushing (BP)** -- route every request to some replica immediately
  on arrival; the LB never queues.  This is what round-robin, least-load and
  the SGLang router baselines do.
* **Selective pushing by outstanding requests (SP-O)** -- push only to
  replicas whose outstanding-request count is below a fixed threshold;
  otherwise queue at the LB.
* **Selective pushing by pending requests (SP-P)** -- SkyWalker's policy:
  push only to replicas whose continuous batch can still admit work, i.e.
  replicas with **no pending request**.  This adapts automatically to how
  much memory the current requests consume.

Policies operate on :class:`ReplicaProbe` snapshots gathered by the
availability monitor; they never inspect the replica object directly, which
keeps the information model identical to the real system (probes are stale
by up to one probe interval plus an RTT).

Policies are resolved *by name* through a registry: the built-ins register
themselves via :func:`register_pushing_policy` and third parties add their
own the same way.  Experiment configs carry only the (picklable) policy
name; the actual policy object is instantiated wherever the system is built,
including inside sweep worker processes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

from .._registry import NameRegistry

__all__ = [
    "ReplicaProbe",
    "PushingPolicy",
    "BlindPushing",
    "SelectivePushingOutstanding",
    "SelectivePushingPending",
    "register_pushing_policy",
    "unregister_pushing_policy",
    "registered_pushing_policies",
    "make_pushing_policy",
]

#: Factory taking policy-specific keyword arguments and returning a policy.
PushingPolicyFactory = Callable[..., "PushingPolicy"]


class ReplicaProbe(NamedTuple):
    """A point-in-time snapshot of one replica's observable load.

    A ``NamedTuple`` rather than a frozen dataclass: one is constructed per
    replica per probe cycle, and tuple construction is several times
    cheaper than ``object.__setattr__``-based frozen-dataclass init.
    """

    replica_name: str
    healthy: bool
    num_pending: int
    num_running: int
    num_outstanding: int
    memory_utilization: float
    probe_time: float


class PushingPolicy:
    """Decides whether a replica may receive more work right now."""

    #: Blind policies dispatch immediately and never hold requests at the LB.
    blind: bool = False
    name: str = "abstract"

    def replica_available(self, probe: ReplicaProbe, dispatched_since_probe: int) -> bool:
        """Is the replica a valid push target given its last probe?

        ``dispatched_since_probe`` counts requests this balancer has already
        sent to the replica since the probe was taken; selective policies use
        it to avoid dumping an entire queue onto one replica inside a single
        probe interval (the optimistic-staleness guard).

        **Contract:** the answer must be a pure function of ``(probe,
        dispatched_since_probe)``, read nothing else (no clock, no random
        draw, no replica object) and be a ``bool``.  The availability
        monitor keeps each replica's answer and recomputes it only when the
        probe, the dispatch count or the replica's health changes.
        """
        raise NotImplementedError

    def pushed_prefix_tokens(self, prompt_tokens: int, resident_tokens: int) -> int:
        """KV tokens a push of this request must ship to its target.

        When the balancer models push transfer costs
        (``MemoryConfig.push_*``), this is what makes BP vs SP-O/SP-P costs
        size-dependent: a blind push cannot know what the target already
        holds, so it ships the whole prompt's KV; a selective, prefix-aware
        push ships only the suffix beyond the target's known-resident prefix
        (``resident_tokens``, from the balancer's affinity tree).
        """
        if self.blind:
            return prompt_tokens
        return max(0, prompt_tokens - resident_tokens)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__}>"


# ----------------------------------------------------------------------
# the pushing-policy registry
# ----------------------------------------------------------------------
_PUSHING_POLICIES = NameRegistry("pushing policy", plural="policies", normalize=str.upper)


def register_pushing_policy(
    name: str, *, replace_existing: bool = False
) -> Callable[[PushingPolicyFactory], PushingPolicyFactory]:
    """Register a pushing-policy factory under ``name`` (case-insensitive).

    This is the same extension pattern as ``@register_system``: decorate a
    class (or any factory taking keyword arguments) and the name becomes
    resolvable everywhere a built-in policy name is -- ``SkyWalkerConfig``'s
    ``pushing`` field and :func:`make_pushing_policy`::

        @register_pushing_policy("SP-MEM")
        class MemoryPushing(PushingPolicy):
            def replica_available(self, probe, dispatched_since_probe):
                return probe.healthy and probe.memory_utilization < 0.8

    The policy must keep :meth:`PushingPolicy.replica_available`'s purity
    contract: a policy that draws at random or reads the clock would be
    answered from a stale verdict.
    """
    return _PUSHING_POLICIES.register(name, replace_existing=replace_existing)


def unregister_pushing_policy(name: str) -> None:
    """Remove a registered policy (mainly for test cleanup)."""
    _PUSHING_POLICIES.unregister(name)


def registered_pushing_policies() -> Tuple[str, ...]:
    """Every pushing-policy name currently registered."""
    return _PUSHING_POLICIES.names()


@register_pushing_policy("BP")
class BlindPushing(PushingPolicy):
    """Route immediately, regardless of replica state (BP)."""

    blind = True
    name = "BP"

    def replica_available(self, probe: ReplicaProbe, dispatched_since_probe: int) -> bool:
        return probe.healthy


@register_pushing_policy("SP-O")
class SelectivePushingOutstanding(PushingPolicy):
    """Fixed cap on outstanding requests per replica (SP-O).

    The paper observes that the sustainable number of outstanding requests
    for Llama-3.1-8B on an L4 ranges from roughly 20 to 50 depending on
    request sizes, so any fixed threshold is wrong part of the time: too low
    wastes capacity, too high recreates blind pushing.
    """

    name = "SP-O"

    def __init__(self, max_outstanding: int = 24) -> None:
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
        self.max_outstanding = max_outstanding

    def replica_available(self, probe: ReplicaProbe, dispatched_since_probe: int) -> bool:
        if not probe.healthy:
            return False
        return probe.num_outstanding + dispatched_since_probe < self.max_outstanding

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<SelectivePushingOutstanding max={self.max_outstanding}>"


@register_pushing_policy("SP-P")
class SelectivePushingPending(PushingPolicy):
    """SkyWalker's policy: a replica is available iff it has no pending
    request (its continuous batch is not full), SP-P.

    Parameters
    ----------
    pending_slack:
        How many probed pending requests are still considered "not full"
        (0 = the paper's definition: any pending request marks the replica
        full).
    max_dispatch_per_probe:
        Staleness guard: at most this many requests may be pushed to one
        replica between two probes of it.  This only bounds how much a stale
        "available" verdict can be acted on within one probe interval; it
        does not change the pending-request semantics.
    """

    name = "SP-P"

    def __init__(self, pending_slack: int = 0, max_dispatch_per_probe: int = 16) -> None:
        if pending_slack < 0:
            raise ValueError("pending_slack must be non-negative")
        if max_dispatch_per_probe < 1:
            raise ValueError("max_dispatch_per_probe must be at least 1")
        self.pending_slack = pending_slack
        self.max_dispatch_per_probe = max_dispatch_per_probe

    def replica_available(self, probe: ReplicaProbe, dispatched_since_probe: int) -> bool:
        if not probe.healthy:
            return False
        if probe.num_pending > self.pending_slack:
            return False
        return dispatched_since_probe < self.max_dispatch_per_probe

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<SelectivePushingPending slack={self.pending_slack} "
            f"max_dispatch={self.max_dispatch_per_probe}>"
        )


def make_pushing_policy(name: str, **kwargs) -> PushingPolicy:
    """Instantiate a registered pushing policy by name (``"BP"``, ``"SP-O"``,
    ``"SP-P"``, or any name added via :func:`register_pushing_policy`)."""
    return _PUSHING_POLICIES.make(name, **kwargs)
