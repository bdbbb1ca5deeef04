"""The pluggable system registry: the public API for adding balancer systems.

Instead of a hard-coded if/elif ladder in the experiment runner, every
load-balancing *system* (a balancer family plus its wiring) registers itself
with the global :data:`REGISTRY`:

.. code-block:: python

    from repro.experiments.registry import SystemSpec, register_system

    @dataclass(frozen=True)
    class MySystemConfig(SystemSpec):
        kind: str = "my-system"
        fanout: int = 2

    @register_system("my-system", config=MySystemConfig)
    def build_my_system(spec, ctx):
        balancer = ...            # create balancer(s) from spec + ctx
        ctx.attach(balancer)      # add replicas, start, register with DNS
        return [balancer]

After registration the system is a first-class citizen everywhere:
``run_experiment`` builds it and ``run_sweep`` sweeps it -- with **no**
edits to the runner or to any central kind enum.

The :class:`BuildContext` hands builders everything they may need (the
simulation environment, network, deployment, frontend, client regions, the
resolved hash key) plus helpers for the common wiring patterns: fully-wired
centralized balancers (:meth:`BuildContext.attach`) and regional SkyWalker
meshes (:func:`build_regional_mesh`).  A builder returns its balancers, each
a :class:`~repro.core.interface.BalancerBase`; :func:`build_system
<repro.experiments.runner.build_system>` installs the run's pushed-prefix
transfer model on every one of them, however the builder wired it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .._registry import NameRegistry
from ..cluster import Deployment, Frontend
from ..core.balancer import SkyWalkerBalancer
from ..core.interface import BalancerBase
from ..core.policies import make_constraint as _make_named_constraint
from ..net import Network
from ..network import NetworkTopology
from ..sim import Environment
from ..workloads.request import Request

__all__ = [
    "SystemSpec",
    "BuildContext",
    "SystemRegistry",
    "REGISTRY",
    "register_system",
    "registered_system_kinds",
    "build_regional_mesh",
]

SystemBuilder = Callable[["SystemSpec", "BuildContext"], List[BalancerBase]]


# ----------------------------------------------------------------------
# typed system configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemSpec:
    """Base class for every system's typed configuration.

    Subclasses add their own knobs (all defaulted) and set ``kind`` to the
    registry name they are registered under.  ``hash_key`` is optional: when
    left ``None`` the workload's natural identity key is used.
    """

    kind: str = ""
    label: Optional[str] = None
    #: Consistent-hashing key: "user", "session", or None (= workload's).
    hash_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.hash_key not in (None, "user", "session"):
            raise ValueError("hash_key must be 'user', 'session' or None")

    @property
    def name(self) -> str:
        """Display name used in metrics rows."""
        return self.label or self.kind


# ----------------------------------------------------------------------
# build context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BuildContext:
    """Everything a system builder may need to wire itself into the stack."""

    env: Environment
    network: Network
    deployment: Deployment
    frontend: Frontend
    client_regions: Tuple[str, ...] = ()
    #: The resolved consistent-hashing key for this run ("user"/"session").
    hash_key: str = "user"

    @property
    def topology(self) -> NetworkTopology:
        return self.network.topology

    @property
    def regions(self) -> List[str]:
        """Every region hosting replicas or clients, sorted."""
        return sorted(set(self.deployment.regions) | set(self.client_regions))

    def hash_key_fn(self) -> Callable[[Request], str]:
        """Identity-extraction function for the resolved hash key."""
        if self.hash_key == "user":
            return lambda request: request.user_id
        return lambda request: request.session_id

    def make_constraint(self, constraint: Optional[str]):
        """Instantiate a named routing constraint (None passes through).

        Names resolve through the constraint registry
        (:func:`repro.core.policies.register_constraint`), so third-party
        constraints work anywhere the built-in ``"gdpr"``/``"continent"``
        do -- including inside sweep worker processes.
        """
        if constraint is None:
            return None
        return _make_named_constraint(constraint, self.topology)

    def attach(
        self, balancer: BalancerBase, *, regions: Optional[Sequence[str]] = None
    ) -> BalancerBase:
        """Finish wiring one balancer: add replicas (all of them, or only the
        listed regions'), start it, and register it with the frontend."""
        if regions is None:
            replicas = self.deployment.replicas
        else:
            replicas = [r for region in regions for r in self.deployment.replicas_in(region)]
        for replica in replicas:
            balancer.add_replica(replica)
        balancer.start()
        self.frontend.register_balancer(balancer)
        return balancer


def build_regional_mesh(
    ctx: BuildContext, make_balancer: Callable[[str], SkyWalkerBalancer]
) -> List[SkyWalkerBalancer]:
    """Build one SkyWalker balancer per region and wire them into a full mesh.

    ``make_balancer(region)`` creates the (unstarted) balancer for a region;
    this helper attaches the region's replicas, cross-registers every pair
    as peers, starts them and registers them with the frontend.  This is
    the wiring shared by the SkyWalker family and its plug-in variants.
    """
    balancers = [make_balancer(region) for region in ctx.regions]
    for balancer in balancers:
        for replica in ctx.deployment.replicas_in(balancer.region):
            balancer.add_replica(replica)
    for balancer in balancers:
        for peer in balancers:
            if peer is not balancer:
                balancer.add_peer(peer)
    for balancer in balancers:
        balancer.start()
        ctx.frontend.register_balancer(balancer)
    return balancers


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class SystemRegistry(NameRegistry):
    """The system registry: a case-sensitive :class:`NameRegistry` whose
    entries pair a builder with its typed :class:`SystemSpec` subclass."""

    def __init__(self) -> None:
        super().__init__("system kind", plural="kinds", normalize=str)

    def spec(self, kind: str, **overrides) -> SystemSpec:
        """A default-configured typed spec for a registered kind."""
        return self.get(kind).spec_cls(kind=kind, **overrides)

    def build(self, spec: SystemSpec, ctx: BuildContext) -> List[BalancerBase]:
        """Dispatch to the registered builder for ``spec.kind``."""
        return self.get(spec.kind).factory(spec, ctx)


#: The process-global registry every public entry point dispatches through.
REGISTRY = SystemRegistry()


def register_system(
    name: str,
    *,
    config: type = SystemSpec,
    description: str = "",
    replace_existing: bool = False,
) -> Callable[[SystemBuilder], SystemBuilder]:
    """Register a system builder with the global :data:`REGISTRY`.

    This is the public extension point: decorate a builder taking
    ``(spec, ctx)`` and returning the list of created balancers.
    """
    return REGISTRY.register(
        name, spec=config, description=description, replace_existing=replace_existing
    )


def registered_system_kinds() -> Tuple[str, ...]:
    """Every system kind currently registered (built-ins and plugins)."""
    return REGISTRY.names()
