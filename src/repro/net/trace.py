"""Route-event traces: run one experiment cell, return its route diffs.

:func:`run_route_trace` is a module-level (hence picklable) worker entry
point, exactly like :func:`repro.experiments.sweep.run_sweep_task` but
returning the network's ``route_changed`` sequence instead of metrics.  The
re-convergence determinism tests push the *same* task through a serial map,
a ``workers=2`` fork pool and a forced-spawn pool and assert the traces are
identical tuples.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["run_route_trace"]


def run_route_trace(task) -> Tuple[tuple, ...]:
    """Run one :class:`~repro.experiments.sweep.SweepTask` and return the
    network's :class:`~repro.net.routed.RouteChange` sequence as a
    tuple of :meth:`~repro.net.routed.RouteChange.as_tuple` values."""
    # Imported lazily: the experiments package imports repro.net for the
    # runner's network, so a module-level import here would cycle.
    from ..experiments.runner import run_experiment

    result = run_experiment(task.config(), task.workload.fresh_copy())
    return tuple(event.as_tuple() for event in result.frontend.network.route_events)
