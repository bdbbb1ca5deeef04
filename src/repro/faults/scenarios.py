"""Named chaos scenarios: a curated library of registered fault schedules.

Every scenario here is a :func:`~repro.faults.schedule.register_fault_schedule`
factory, so it can be used anywhere a schedule object is accepted --
``run_experiment(..., faults="lossy-wan")``,
``run_sweep(..., faults="spot-eviction-wave")`` -- and resolves by name
inside sweep worker processes.  All knobs are keyword arguments with
defaults sized for the small three-region test clusters (one replica per
region); real experiments override ``replicas=``, times and levels.

Deterministic scenarios return a concrete
:class:`~repro.faults.schedule.FaultSchedule`; stochastic ones return a
:class:`~repro.faults.stochastic.StochasticFaultSchedule` that compiles
per run seed, so multi-seed sweeps see genuinely different fault timings
while each seed stays bit-reproducible.  Scenarios compose: schedules
merge with :meth:`FaultSchedule.merge`, and ``gray-failure-mix`` below is
itself built from smaller pieces.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .schedule import FaultEvent, FaultSchedule, register_fault_schedule
from .spec import (
    BalancerFailure,
    LinkDegrade,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    ReplicaDegrade,
)
from .stochastic import RenewalFaultProcess, StochasticFaultSchedule

__all__ = ["DEFAULT_REGIONS"]

DEFAULT_REGIONS: Tuple[str, ...] = ("us", "eu", "asia")


# ----------------------------------------------------------------------
# planned-maintenance / outage scenarios
# ----------------------------------------------------------------------
@register_fault_schedule("rolling-upgrade")
def _rolling_upgrade(
    start_s: float = 10.0,
    drain_s: float = 8.0,
    stagger_s: float = 12.0,
    regions: Sequence[str] = DEFAULT_REGIONS,
    replicas: int = 1,
    preserve_disk: bool = True,
) -> FaultSchedule:
    """Restart every replica once, one at a time, region by region.

    Each replica is down for ``drain_s`` and restarts ``stagger_s`` after
    the previous one began.  ``preserve_disk`` models an upgrade that
    keeps durable KV offload across the restart.
    """
    events = []
    t = start_s
    for region in regions:
        for index in range(replicas):
            events.append(
                FaultEvent(
                    t,
                    ReplicaCrash(
                        region=region,
                        index=index,
                        duration_s=drain_s,
                        preserve_disk=preserve_disk,
                    ),
                )
            )
            t += stagger_s
    return FaultSchedule(events=tuple(events))


@register_fault_schedule("zone-outage-correlated")
def _zone_outage_correlated(
    at_s: float = 20.0,
    duration_s: float = 15.0,
    region: str = "eu",
    replicas: int = 1,
) -> FaultSchedule:
    """A whole zone goes dark at once: every replica *and* the balancer in
    ``region`` fail together (correlated, not independent, failures)."""
    events = [
        FaultEvent(
            at_s, ReplicaCrash(region=region, index=index, duration_s=duration_s)
        )
        for index in range(replicas)
    ]
    events.append(FaultEvent(at_s, BalancerFailure(region=region, duration_s=duration_s)))
    return FaultSchedule(events=tuple(events))


@register_fault_schedule("region-partition-flap")
def _region_partition_flap(
    start_s: float = 15.0,
    up_s: float = 5.0,
    down_s: float = 5.0,
    flaps: int = 3,
    a: str = "us",
    b: Optional[str] = "eu",
) -> FaultSchedule:
    """A flapping WAN link: the ``a``<->``b`` partition opens and heals
    ``flaps`` times (``down_s`` blocked, ``up_s`` healthy, repeat)."""
    events = []
    t = start_s
    for _ in range(flaps):
        events.append(FaultEvent(t, RegionPartition(a=a, b=b, duration_s=down_s)))
        t += down_s + up_s
    return FaultSchedule(events=tuple(events))


# ----------------------------------------------------------------------
# gray-failure scenarios (slow-but-alive)
# ----------------------------------------------------------------------
@register_fault_schedule("thermal-throttle")
def _thermal_throttle(
    at_s: float = 10.0,
    duration_s: Optional[float] = 30.0,
    region: str = "us",
    index: int = 0,
    level: str = "thermal-throttle",
) -> FaultSchedule:
    """One replica hits its thermal limit and runs slow for a while."""
    return FaultSchedule.single(
        at_s,
        ReplicaDegrade(region=region, index=index, level=level, duration_s=duration_s),
    )


@register_fault_schedule("power-cap-region")
def _power_cap_region(
    at_s: float = 10.0,
    duration_s: Optional[float] = 40.0,
    region: str = "us",
    replicas: int = 1,
    level: str = "power-cap",
) -> FaultSchedule:
    """A datacenter-wide RAPL power cap: every replica in ``region`` drops
    to the ``power-cap`` performance level at once."""
    events = tuple(
        FaultEvent(
            at_s,
            ReplicaDegrade(
                region=region, index=index, level=level, duration_s=duration_s
            ),
        )
        for index in range(replicas)
    )
    return FaultSchedule(events=events)


@register_fault_schedule("slow-replica-epidemic")
def _slow_replica_epidemic(
    start_s: float = 10.0,
    spread_s: float = 8.0,
    duration_s: float = 25.0,
    regions: Sequence[str] = DEFAULT_REGIONS,
    replicas: int = 1,
    level: str = "thermal-throttle",
) -> FaultSchedule:
    """Slowness spreads through the fleet: replicas degrade one after
    another (``spread_s`` apart), each recovering ``duration_s`` later --
    so the set of slow replicas grows, overlaps, then drains."""
    events = []
    t = start_s
    for region in regions:
        for index in range(replicas):
            events.append(
                FaultEvent(
                    t,
                    ReplicaDegrade(
                        region=region, index=index, level=level, duration_s=duration_s
                    ),
                )
            )
            t += spread_s
    return FaultSchedule(events=tuple(events))


@register_fault_schedule("flash-crowd-throttle")
def _flash_crowd_throttle(
    at_s: float = 15.0,
    duration_s: float = 20.0,
    hot_region: str = "us",
    replicas: int = 1,
    level: str = "thermal-throttle",
    spill_extra_s: float = 0.05,
) -> FaultSchedule:
    """A flash crowd's side effects: the hot region's replicas thermal
    throttle under sustained load while its egress links congest (extra
    latency), so spilled traffic pays more to leave just as local capacity
    drops."""
    events = [
        FaultEvent(
            at_s,
            ReplicaDegrade(
                region=hot_region, index=index, level=level, duration_s=duration_s
            ),
        )
        for index in range(replicas)
    ]
    for other in DEFAULT_REGIONS:
        if other != hot_region:
            events.append(
                FaultEvent(
                    at_s,
                    LinkLatencySpike(
                        a=hot_region, b=other, extra_s=spill_extra_s, duration_s=duration_s
                    ),
                )
            )
    return FaultSchedule(events=tuple(events))


@register_fault_schedule("lossy-wan")
def _lossy_wan(
    at_s: float = 10.0,
    duration_s: Optional[float] = 30.0,
    loss_probability: float = 0.05,
    extra_jitter_fraction: float = 0.5,
    links: Sequence[Tuple[str, str]] = (("us", "eu"), ("eu", "asia")),
) -> FaultSchedule:
    """Flaky wide-area links: per-message loss and inflated jitter on the
    given region pairs (probes get slow, traffic gets dropped)."""
    events = tuple(
        FaultEvent(
            at_s,
            LinkDegrade(
                a=a,
                b=b,
                loss_probability=loss_probability,
                extra_jitter_fraction=extra_jitter_fraction,
                duration_s=duration_s,
            ),
        )
        for a, b in links
    )
    return FaultSchedule(events=events)


@register_fault_schedule("wan-brownout")
def _wan_brownout(
    at_s: float = 12.0,
    duration_s: float = 25.0,
    a: str = "us",
    b: str = "eu",
    extra_s: float = 0.15,
    loss_probability: float = 0.02,
) -> FaultSchedule:
    """A browning-out link: a latency spike *and* a gray degrade on the
    same edge at the same instant (exercises identical-timestamp fault
    composition -- neither op may clobber the other)."""
    return FaultSchedule(
        events=(
            FaultEvent(at_s, LinkLatencySpike(a=a, b=b, extra_s=extra_s, duration_s=duration_s)),
            FaultEvent(
                at_s,
                LinkDegrade(
                    a=a,
                    b=b,
                    loss_probability=loss_probability,
                    extra_jitter_fraction=0.3,
                    duration_s=duration_s,
                ),
            ),
        )
    )


@register_fault_schedule("gray-failure-mix")
def _gray_failure_mix(
    at_s: float = 10.0,
    duration_s: float = 30.0,
    slow_region: str = "us",
    lossy_a: str = "eu",
    lossy_b: str = "asia",
    level: str = "power-cap",
) -> FaultSchedule:
    """The kitchen-sink gray scenario: a slow replica plus a lossy link
    plus a latency spike, composed from the smaller scenario factories."""
    slow = _thermal_throttle(
        at_s=at_s, duration_s=duration_s, region=slow_region, level=level
    )
    lossy = _lossy_wan(
        at_s=at_s, duration_s=duration_s, links=((lossy_a, lossy_b),)
    )
    spike = FaultSchedule.single(
        at_s, LinkLatencySpike(a=slow_region, b=lossy_a, extra_s=0.1, duration_s=duration_s)
    )
    return slow.merge(lossy).merge(spike)


# ----------------------------------------------------------------------
# stochastic scenarios (compile per run seed)
# ----------------------------------------------------------------------
@register_fault_schedule("spot-eviction-wave")
def _spot_eviction_wave(
    mtbf_s: float = 40.0,
    mttr_s: float = 8.0,
    seed: int = 0,
    regions: Sequence[str] = DEFAULT_REGIONS,
    index: int = 0,
    preserve_disk: bool = False,
) -> StochasticFaultSchedule:
    """Spot-instance evictions: each region's replica is reclaimed at
    exponential intervals and replaced ``mttr_s`` later.  Per-region
    processes draw independent streams (the seed is salted by region)."""
    processes = tuple(
        RenewalFaultProcess(
            fault=ReplicaCrash(region=region, index=index, preserve_disk=preserve_disk),
            mtbf_s=mtbf_s,
            mttr_s=mttr_s,
            seed=seed + salt,
        )
        for salt, region in enumerate(regions)
    )
    return StochasticFaultSchedule(processes=processes)


@register_fault_schedule("replica-crash-storm")
def _replica_crash_storm(
    mtbf_s: float = 30.0,
    mttr_s: float = 6.0,
    seed: int = 0,
    region: str = "us",
    index: int = 0,
    shape: float = 0.7,
) -> StochasticFaultSchedule:
    """A crash-looping replica: Weibull interarrivals with shape < 1
    (infant mortality), so crashes cluster in bursts."""
    return StochasticFaultSchedule(
        processes=(
            RenewalFaultProcess(
                fault=ReplicaCrash(region=region, index=index),
                mtbf_s=mtbf_s,
                mttr_s=mttr_s,
                seed=seed,
                distribution="weibull",
                shape=shape,
            ),
        )
    )


@register_fault_schedule("gray-throttle-renewal")
def _gray_throttle_renewal(
    mtbf_s: float = 45.0,
    mttr_s: float = 15.0,
    seed: int = 0,
    region: str = "us",
    index: int = 0,
    level: str = "thermal-throttle",
) -> StochasticFaultSchedule:
    """Recurring thermal throttling: one replica oscillates between
    nominal and degraded on a seeded renewal process -- the fig13 headline
    scenario's single-replica building block."""
    return StochasticFaultSchedule(
        processes=(
            RenewalFaultProcess(
                fault=ReplicaDegrade(region=region, index=index, level=level),
                mtbf_s=mtbf_s,
                mttr_s=mttr_s,
                seed=seed,
            ),
        )
    )
