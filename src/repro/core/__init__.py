"""SkyWalker's core: the locality-aware cross-region load balancer.

This package contains the paper's contribution:

* :class:`BalancerBase` -- the one balancer type, which every baseline and
  SkyWalker subclass,
* :class:`SkyWalkerBalancer` -- the regional load balancer with two-layer
  cross-region routing (§3.1),
* :class:`PrefixTree` and :class:`ConsistentHashRing` -- the two
  prefix-aware candidate-selection mechanisms (§3.2), used by the
  :class:`PrefixTreeSelection` and :class:`ConsistentHashSelection` policy
  objects,
* the selective-pushing policies (§3.3),
* :class:`AvailabilityMonitor` -- the heartbeat/probing loop of Algorithm 1,
* :class:`ServiceController` -- the management plane with load-balancer
  failure recovery (§4.2),
* routing constraints such as GDPR data-residency (§4.1, §7).
"""

from .availability import AvailabilityMonitor, LoadBalancerProbe
from .balancer import SkyWalkerBalancer
from .controller import FailoverRecord, ServiceController
from .hash_ring import ConsistentHashRing
from .interface import BalancerBase
from .selection import ConsistentHashSelection, PrefixTreeSelection, SelectionPolicy
from .policies import (
    AllowAll,
    CompositeConstraint,
    DenyRegions,
    GDPRConstraint,
    RoutingConstraint,
    SameContinentConstraint,
    make_constraint,
    register_constraint,
    registered_constraints,
    unregister_constraint,
)
from .prefix_tree import PrefixMatch, PrefixTree
from .pushing import (
    BlindPushing,
    PushingPolicy,
    ReplicaProbe,
    SelectivePushingOutstanding,
    SelectivePushingPending,
    make_pushing_policy,
    register_pushing_policy,
    registered_pushing_policies,
    unregister_pushing_policy,
)

__all__ = [
    "BalancerBase",
    "SkyWalkerBalancer",
    "SelectionPolicy",
    "PrefixTreeSelection",
    "ConsistentHashSelection",
    "AvailabilityMonitor",
    "LoadBalancerProbe",
    "ServiceController",
    "FailoverRecord",
    "ConsistentHashRing",
    "PrefixTree",
    "PrefixMatch",
    "PushingPolicy",
    "ReplicaProbe",
    "BlindPushing",
    "SelectivePushingOutstanding",
    "SelectivePushingPending",
    "make_pushing_policy",
    "register_pushing_policy",
    "registered_pushing_policies",
    "unregister_pushing_policy",
    "RoutingConstraint",
    "AllowAll",
    "GDPRConstraint",
    "SameContinentConstraint",
    "DenyRegions",
    "CompositeConstraint",
    "make_constraint",
    "register_constraint",
    "registered_constraints",
    "unregister_constraint",
]
