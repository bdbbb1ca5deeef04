"""Multi-region cluster: deployments, pricing, clients and the frontend."""

from .client import ClosedLoopClient, Frontend, RequestTracker, TraceReplayClient
from .deployment import Deployment, ReplicaSpec
from .pricing import (
    G6_XLARGE,
    ON_PREMISE_DISCOUNT,
    P5_48XLARGE,
    PRICING_CATALOG,
    InstancePricing,
)

__all__ = [
    "Deployment",
    "ReplicaSpec",
    "InstancePricing",
    "PRICING_CATALOG",
    "P5_48XLARGE",
    "G6_XLARGE",
    "ON_PREMISE_DISCOUNT",
    "RequestTracker",
    "Frontend",
    "ClosedLoopClient",
    "TraceReplayClient",
]
