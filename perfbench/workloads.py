"""The benchmark's three workloads and the stack each one runs on.

Every workload is a single-process, single-threaded simulation.  ``build``
generates the inputs from a workload seed and assembles the stack (the
set-up the benchmark times as ``setup_s``); ``drive`` runs the simulation to
its end condition (timed as ``wall_s``), calling ``lap()`` at the end of each
of a fixed sequence of simulated-time slices so the benchmark can time every
slice apart.  Slicing leaves the simulation unchanged: ``Environment.run``
with a numeric ``until`` schedules nothing and stops where one call would.  The assembly mirrors
``repro.experiments.runner.run_experiment`` so the two phases can be timed
apart; ``calibrate.py`` checks it against ``run_experiment`` event for event.

Workload generation goes through a ``hooks`` object (:class:`PlainHooks`
here, the tracer in a traced run) so the traced run can time it:
``hooks.generate(builder, **kwargs)`` for materialized workloads and
``hooks.stream(iterable)`` for request streams consumed during the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.cluster import (
    ClosedLoopClient,
    Deployment,
    Frontend,
    ReplicaSpec,
    RequestTracker,
    TraceReplayClient,
)
from repro.experiments import (
    REGISTRY,
    build_system,
    build_tot_workload,
    build_wildchat_workload,
)
from repro.experiments.macro import default_macro_cluster
from repro.net import NetConfig, build_routed_network
from repro.network import Network, default_topology
from repro.replica import LLAMA_8B_L4
from repro.sim import Environment
from repro.workloads import DiurnalPattern, DiurnalRequestStream

from outcomes import Recorder

#: Client-side jitter of every link, as in ``ExperimentConfig``.
NETWORK_JITTER = 0.05


@dataclass
class Stack:
    """One assembled simulation, ready to run."""

    env: Environment
    network: Network
    deployment: Deployment
    tracker: RequestTracker
    frontend: Frontend
    balancers: list
    clients: list
    recorder: Recorder


def _assemble(
    env: Environment,
    network: Network,
    replicas_per_region: Dict[str, int],
    system,
    *,
    client_regions: Sequence[str],
    hash_key: str,
    retain_completed: bool = True,
) -> Stack:
    """Deployment, tracker, frontend and balancers, wired as ``run_experiment``
    wires them (clients are added by the caller)."""
    topology = network.topology
    deployment = Deployment(
        env,
        [
            ReplicaSpec(region=region, count=count, profile=LLAMA_8B_L4)
            for region, count in replicas_per_region.items()
            if count > 0
        ],
        topology=topology,
        network=network,
    )
    tracker = RequestTracker(env, retain_completed=retain_completed)
    for replica in deployment.replicas:
        replica.add_completion_listener(tracker.complete)
        if network.contention_enabled and getattr(network, "model_responses", False):
            replica.add_completion_listener(network.stream_response)
    frontend = Frontend(env, network)
    balancers = build_system(
        system,
        env,
        network,
        deployment,
        frontend,
        client_regions=list(client_regions),
        hash_key=hash_key,
    )
    recorder = Recorder(env, frontend, deployment.replicas)
    return Stack(env, network, deployment, tracker, frontend, balancers, [], recorder)


def _closed_loop_clients(stack: Stack, spec) -> None:
    """One ``ClosedLoopClient`` per client slot, programs dealt round-robin
    (program ``i`` to client ``i % n``, as ``run_experiment`` splits them)."""
    for region, num_clients in spec.clients_per_region.items():
        programs = spec.programs_by_region.get(region, [])
        if not programs or num_clients <= 0:
            continue
        for index in range(num_clients):
            chunk = programs[index::num_clients]
            if chunk:
                stack.clients.append(
                    ClosedLoopClient(
                        stack.env,
                        name=f"{region}/client-{index}",
                        region=region,
                        frontend=stack.frontend,
                        tracker=stack.tracker,
                        programs=chunk,
                    )
                )


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build it from a seed and how to run it."""

    name: str
    why: str
    #: ``--seed`` 0 maps to this workload seed; later claims are confirmed
    #: on ``held_out_seed`` (a ``--seed`` value not used while writing them).
    base_seed: int
    held_out_seed: int
    #: Independent simulations pooled into one run's ``sim_*`` metrics.
    sims_per_run: int
    build: Callable[[int, object], Stack]
    drive: Callable[[Stack, Callable[[], None]], None]
    #: Whether every issued request must complete (the run drains).
    lossless: bool = False

    def sim_seeds(self, seed: int) -> List[int]:
        """The workload seeds one ``--seed`` value stands for."""
        first = self.base_seed + seed * self.sims_per_run
        return [first + k for k in range(self.sims_per_run)]


# ----------------------------------------------------------------------
# chat-closed
# ----------------------------------------------------------------------
CHAT_DURATION_S = 600.0


def _build_chat(seed: int, hooks) -> Stack:
    spec = hooks.generate(
        build_wildchat_workload, scale=1.0, seed=seed, conversations_per_client=8
    )
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=NETWORK_JITTER, seed=seed)
    stack = _assemble(
        env,
        network,
        default_macro_cluster(1.0).replicas_per_region,
        REGISTRY.spec("skywalker"),
        client_regions=list(spec.clients_per_region),
        hash_key=spec.hash_key,
    )
    _closed_loop_clients(stack, spec)
    return stack


#: Simulated-time slices a run is timed in (see ``run.py``).
SLICES = 50


def _drive_horizon(duration_s: float) -> Callable[[Stack, Callable[[], None]], None]:
    def drive(stack: Stack, lap: Callable[[], None]) -> None:
        for k in range(1, SLICES + 1):
            stack.env.run(until=duration_s * k / SLICES)
            lap()

    return drive


# ----------------------------------------------------------------------
# tot-wan
# ----------------------------------------------------------------------
TOT_DURATION_S = 150.0
#: A 2 Gb/s routed backbone: contended, but not so saturated that the
#: TTFT tail turns chaotic (at 1 Gb/s the p99 varies 2x from seed to seed).
TOT_NET = NetConfig(topology="backbone", wan_bandwidth_bytes_per_s=2.5e8)


def _build_tot(seed: int, hooks) -> Stack:
    spec = hooks.generate(build_tot_workload, scale=1.0, seed=seed, trees_per_client=10)
    env = Environment()
    network = build_routed_network(
        env,
        TOT_NET,
        default_topology(),
        jitter_fraction=NETWORK_JITTER,
        seed=seed,
        default_kv_bytes_per_token=LLAMA_8B_L4.kv_bytes_per_token,
    )
    stack = _assemble(
        env,
        network,
        {"us": 0, "eu": 4, "asia": 4},
        REGISTRY.spec("skywalker", hash_key="session"),
        client_regions=list(spec.clients_per_region),
        hash_key=spec.hash_key,
    )
    _closed_loop_clients(stack, spec)
    return stack


# ----------------------------------------------------------------------
# diurnal-offload
# ----------------------------------------------------------------------
#: region: (utc_offset_hours, base_rate, peak_rate) in requests/hour.  The
#: rates are the engine macrobench's Fig. 2 profiles; the offsets put UTC
#: hour 0 at the US afternoon peak while Europe and Asia are at night.
DIURNAL_PATTERNS = {
    "us": (15.0, 900.0, 7600.0),
    "eu": (3.0, 250.0, 1900.0),
    "asia": (5.0, 800.0, 7400.0),
}
#: At 2.5x the profile rates the US peak sends ~5 requests/s at two US
#: replicas, so ~35% of requests are served cross-region and the TTFT
#: median sits inside the offloaded mode (at 2x it sits on the boundary
#: between the local and offloaded modes and jumps with the seed; at 3x
#: some seeds tip into overload and the p99 doubles).
DIURNAL_RATE_SCALE = 2.5
#: Arrivals are replayed for the first ``DIURNAL_WINDOW_S`` of hour 0.
DIURNAL_WINDOW_S = 400.0
#: Sim time after the window by which the drain must have ended.
DIURNAL_DRAIN_LIMIT_S = 1800.0


def _window(stream, window_s: float):
    for arrival, request in stream:
        if arrival >= window_s:
            return
        yield arrival, request


def _build_diurnal(seed: int, hooks) -> Stack:
    env = Environment()
    network = Network(env, default_topology(), jitter_fraction=NETWORK_JITTER, seed=seed)
    stack = _assemble(
        env,
        network,
        {region: 2 for region in DIURNAL_PATTERNS},
        REGISTRY.spec("skywalker"),
        client_regions=list(DIURNAL_PATTERNS),
        hash_key="user",
        retain_completed=False,
    )
    for region, (offset, base, peak) in DIURNAL_PATTERNS.items():
        stream = DiurnalRequestStream(
            pattern=DiurnalPattern(offset, base_rate=base, peak_rate=peak),
            region=region,
            hours=1,
            seed=seed,
            rate_scale=DIURNAL_RATE_SCALE,
        )
        source = hooks.stream(_window(stream, DIURNAL_WINDOW_S))
        stack.clients.append(
            TraceReplayClient(
                env,
                name=f"{region}/replay",
                region=region,
                frontend=stack.frontend,
                tracker=stack.tracker,
                timed_requests=source,
            )
        )
    return stack


def _drive_diurnal(stack: Stack, lap: Callable[[], None]) -> None:
    """Replay the window, then step until the last issued request completes
    (so the run ends at that request's finish, not at a step boundary)."""
    env = stack.env
    slice_s = DIURNAL_WINDOW_S / SLICES
    for k in range(1, SLICES + 1):
        env.run(until=DIURNAL_WINDOW_S * k / SLICES)
        lap()
    tracker = stack.tracker
    limit = DIURNAL_WINDOW_S + DIURNAL_DRAIN_LIMIT_S
    mark = DIURNAL_WINDOW_S + slice_s
    while tracker.outstanding and env.now < limit:
        env.step()
        if env.now >= mark:
            lap()
            mark += slice_s
    lap()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chat-closed",
            why=(
                "Fig. 8 wildchat at light region-local load: probes and the "
                "decode loop carry the work; nothing crosses regions or uses net/"
            ),
            base_seed=0,
            held_out_seed=1000,
            sims_per_run=4,
            build=_build_chat,
            drive=_drive_horizon(CHAT_DURATION_S),
        ),
        Workload(
            name="tot-wan",
            why=(
                "deep shared tree-of-thoughts prefixes load the routing trie; "
                "all US traffic crosses a contended 2 Gb/s routed backbone"
            ),
            base_seed=14,
            held_out_seed=1000,
            sims_per_run=6,
            build=_build_tot,
            drive=_drive_horizon(TOT_DURATION_S),
        ),
        Workload(
            name="diurnal-offload",
            why=(
                "open-loop US diurnal peak offloaded to idle regions; short "
                "prompts bypass the trie; streamed, drained, lossless"
            ),
            base_seed=0,
            held_out_seed=1000,
            sims_per_run=6,
            build=_build_diurnal,
            drive=_drive_diurnal,
            lossless=True,
        ),
    )
}


class PlainHooks:
    """Workload generation and driving without tracing."""

    @staticmethod
    def generate(builder, **kwargs):
        return builder(**kwargs)

    @staticmethod
    def stream(iterable):
        return iterable

    @staticmethod
    def drive(workload: Workload, stack: Stack, lap: Callable[[], None]) -> None:
        workload.drive(stack, lap)
