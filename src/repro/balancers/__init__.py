"""Baseline load balancers the paper compares SkyWalker against (§5.1).

Every balancer here subclasses :class:`repro.core.interface.BalancerBase`,
the one balancer type (re-exported for convenience).  Round Robin, Least
Load, Consistent Hashing and the SGLang Router are *centralized*: one
instance (in the US region in the paper's experiments) manages every
replica and blindly pushes each request on arrival, so each only overrides
:meth:`~repro.core.interface.BalancerBase.select_replica`.  The gateway
runs one instance per region.
"""

from ..core.interface import BalancerBase
from .consistent_hash import ConsistentHashBalancer
from .gateway import GatewayBalancer
from .least_load import LeastLoadBalancer
from .round_robin import RoundRobinBalancer
from .sglang_router import SGLangRouterBalancer

__all__ = [
    "BalancerBase",
    "RoundRobinBalancer",
    "LeastLoadBalancer",
    "ConsistentHashBalancer",
    "SGLangRouterBalancer",
    "GatewayBalancer",
]
