"""The availability monitor whose every peer-probe landing is an event.

:class:`EagerMonitor` is the reference the lazy monitor is checked against
(``test_lazy_landings.py``): each peer probe's round trip is a ``Timeout``
from the moment it is sent, and its landing reads the peer's state and
stamps the probe at ``env.now`` when that ``Timeout`` is processed -- the
monitor as it was before landings were deferred.  It shares everything else
(replica probes, the cycle, the change notification) with
:class:`~repro.core.AvailabilityMonitor`.
"""

from functools import partial

from repro.core import AvailabilityMonitor
from repro.core.availability import LoadBalancerProbe


class EagerMonitor(AvailabilityMonitor):
    """An :class:`AvailabilityMonitor` scheduling one event per landing."""

    def _send_balancer_probes(self, balancers) -> None:
        for balancer in balancers:
            rtt = self.network.probe_delay(self.region, balancer.region)
            rtt.callbacks.append(partial(self._landed_now, balancer))

    def _landed_now(self, balancer, rtt) -> None:
        if self._remote_balancers.get(balancer.name) is not balancer:
            return
        blocked = self.network.link_blocked(
            self.region, balancer.region
        ) or self.network.link_blocked(balancer.region, self.region)
        self._balancer_probes[balancer.name] = LoadBalancerProbe(
            balancer_name=balancer.name,
            healthy=balancer.healthy and not blocked,
            num_available_replicas=0 if blocked else balancer.num_available_replicas,
            queue_size=balancer.queue_size,
            probe_time=self.env.now,
        )
        self._forwarded_since_probe[balancer.name] = 0
        self._notify_change()

    def wait_for_change(self):
        # Every landing is already an event.
        return self._change_event
