"""Deterministic fault injection: declarative resilience scenarios.

The paper's headline resilience claim -- SkyWalker degrades gracefully
under balancer and replica failures (§4.2, exercised ad hoc by the old
failover demo) -- becomes a reusable subsystem here:

* :class:`FaultSpec` subclasses (:class:`ReplicaCrash`,
  :class:`BalancerFailure`, :class:`RegionPartition`,
  :class:`LinkLatencySpike`, ...) describe faults as pure, picklable data.
  Every fault heals by its own ``duration_s`` (``None`` = for the rest of
  the run).  :func:`register_fault` plugs in third-party kinds by name,
  mirroring the pushing/constraint/selection registries.
* :class:`FaultSchedule` composes timed events into a scenario;
  :func:`register_fault_schedule` names whole scenarios so sweeps can ship
  just a string into worker processes.  :mod:`repro.faults.scenarios`
  registers a library of ready-made ones (``rolling-upgrade``,
  ``lossy-wan``, ``spot-eviction-wave``, ...).
* Gray failures are first-class: :class:`ReplicaDegrade` slows a replica
  without killing it, :class:`LinkDegrade` adds loss and jitter to a link,
  and :class:`RenewalFaultProcess` / :class:`StochasticFaultSchedule`
  compile seeded MTBF/MTTR renewal chains into concrete schedules per run
  seed.
* :class:`FaultInjector` executes a schedule deterministically against a
  live experiment, running a :class:`~repro.core.controller.ServiceController`
  for SkyWalker-family balancer failures so §4.2 failover happens end to
  end.  Appliers receive the injector itself and heal through
  :meth:`FaultInjector.heal_after`.  The resulting resilience metrics
  (outage goodput, time to recovery, per-phase tail latency, ...) land on
  ``RunMetrics.resilience``.

Every experiment entry point takes the schedule directly::

    from repro.experiments import REGISTRY, run_sweep, build_arena_workload
    from repro.faults import BalancerFailure, FaultSchedule

    schedule = FaultSchedule.single(30.0, BalancerFailure(region="eu",
                                                          duration_s=20.0))
    sweep = run_sweep([REGISTRY.spec("skywalker")],
                      [build_arena_workload(scale=0.1)],
                      faults=schedule, workers=4)
    print(sweep.get("chatbot-arena", "skywalker").resilience.to_dict())

Determinism contract: ``faults=None`` (or an empty schedule) is
bit-identical to a run without any fault machinery, and the same
schedule + seed reproduces the same metrics bit for bit, serial or under
``workers=N``.
"""

from .injector import FaultInjector, FaultRecord
from .schedule import (
    CompilesToFaultSchedule,
    FaultEvent,
    FaultSchedule,
    FaultsLike,
    make_fault_schedule,
    register_fault_schedule,
    registered_fault_schedules,
    resolve_fault_schedule,
    unregister_fault_schedule,
)
from .spec import (
    BalancerFailure,
    FaultSpec,
    LinkDegrade,
    LinkDown,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    ReplicaDegrade,
    make_fault,
    register_fault,
    registered_faults,
    resolve_fault,
    unregister_fault,
)
from .stochastic import RenewalFaultProcess, StochasticFaultSchedule
from . import scenarios  # noqa: F401  (imported for registration side effect)

__all__ = [
    # specs + fault registry
    "FaultSpec",
    "ReplicaCrash",
    "ReplicaDegrade",
    "BalancerFailure",
    "RegionPartition",
    "LinkLatencySpike",
    "LinkDegrade",
    "LinkDown",
    "register_fault",
    "unregister_fault",
    "registered_faults",
    "resolve_fault",
    "make_fault",
    # schedules + schedule registry
    "FaultEvent",
    "FaultSchedule",
    "CompilesToFaultSchedule",
    "FaultsLike",
    "register_fault_schedule",
    "unregister_fault_schedule",
    "registered_fault_schedules",
    "make_fault_schedule",
    "resolve_fault_schedule",
    # stochastic processes
    "RenewalFaultProcess",
    "StochasticFaultSchedule",
    # execution
    "FaultInjector",
    "FaultRecord",
]
