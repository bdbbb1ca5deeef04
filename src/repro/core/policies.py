"""Customisable routing constraints (§4.1 "Customized routing policy", §7).

SkyWalker lets operators restrict which regions may serve which traffic.
The canonical example is GDPR: requests originating in GDPR regions must not
be offloaded outside GDPR scope, while non-GDPR traffic may be offloaded
anywhere (including into GDPR regions when those are underutilised).
Amazon-Bedrock-style "same continent only" offloading is provided as well,
both for comparison experiments and as another example policy.

Constraints are resolvable *by name* through a registry: ``"gdpr"``,
``"continent"`` and ``"allow-all"`` are built in, and operators register
their own factories via :func:`register_constraint`.  Experiment configs
carry only the (picklable) constraint name; the constraint object itself is
instantiated against the run's topology wherever the system is built,
including inside sweep worker processes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from ..network import NetworkTopology
from ..workloads.request import Request
from .._registry import NameRegistry

__all__ = [
    "RoutingConstraint",
    "AllowAll",
    "GDPRConstraint",
    "SameContinentConstraint",
    "DenyRegions",
    "CompositeConstraint",
    "register_constraint",
    "unregister_constraint",
    "registered_constraints",
    "make_constraint",
]

#: Factory taking the run's network topology and returning a constraint.
ConstraintFactory = Callable[[NetworkTopology], "RoutingConstraint"]


class RoutingConstraint:
    """Decides whether a request may be offloaded from one region to another."""

    def allows(self, request: Request, src_region: str, dst_region: str) -> bool:
        raise NotImplementedError


class AllowAll(RoutingConstraint):
    """No restrictions: any region may serve any request."""

    def allows(self, request: Request, src_region: str, dst_region: str) -> bool:
        return True


class GDPRConstraint(RoutingConstraint):
    """GDPR data-residency: GDPR-origin traffic stays in GDPR regions."""

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology

    def allows(self, request: Request, src_region: str, dst_region: str) -> bool:
        return self.topology.gdpr_compatible(src_region, dst_region)


class SameContinentConstraint(RoutingConstraint):
    """Bedrock-style offloading limited to the originating continent."""

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology

    def allows(self, request: Request, src_region: str, dst_region: str) -> bool:
        return self.topology.same_continent(src_region, dst_region)


class DenyRegions(RoutingConstraint):
    """Never offload to an explicit deny-list of regions."""

    def __init__(self, denied: Iterable[str]) -> None:
        self.denied = set(denied)

    def allows(self, request: Request, src_region: str, dst_region: str) -> bool:
        return dst_region not in self.denied


class CompositeConstraint(RoutingConstraint):
    """All member constraints must allow the offload."""

    def __init__(self, constraints: Iterable[RoutingConstraint]) -> None:
        self.constraints = list(constraints)

    def allows(self, request: Request, src_region: str, dst_region: str) -> bool:
        return all(c.allows(request, src_region, dst_region) for c in self.constraints)


# ----------------------------------------------------------------------
# the constraint registry
# ----------------------------------------------------------------------
_CONSTRAINTS = NameRegistry("constraint", plural="constraints")


def register_constraint(
    name: str, *, replace_existing: bool = False
) -> Callable[[ConstraintFactory], ConstraintFactory]:
    """Register a constraint factory under ``name`` (case-insensitive).

    The factory receives the run's :class:`NetworkTopology` and returns a
    :class:`RoutingConstraint`.  After registration the name is accepted
    everywhere a built-in one is (``SkyWalkerConfig.constraint`` and
    :func:`make_constraint`)::

        @register_constraint("us-only")
        def _us_only(topology):
            return DenyRegions({"eu", "asia"})
    """
    return _CONSTRAINTS.register(name, replace_existing=replace_existing)


def unregister_constraint(name: str) -> None:
    """Remove a registered constraint (mainly for test cleanup)."""
    _CONSTRAINTS.unregister(name)


def registered_constraints() -> Tuple[str, ...]:
    """Every constraint name currently registered."""
    return _CONSTRAINTS.names()


def make_constraint(name: str, topology: NetworkTopology) -> RoutingConstraint:
    """Instantiate a registered routing constraint by name."""
    return _CONSTRAINTS.make(name, topology)


def _make_allow_all(topology: NetworkTopology) -> AllowAll:
    """Module-level factory so 'allow-all' pickles by reference (spawn)."""
    return AllowAll()


register_constraint("allow-all")(_make_allow_all)
register_constraint("gdpr")(GDPRConstraint)
register_constraint("continent")(SameContinentConstraint)
