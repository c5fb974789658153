"""Virtual channels as finite FIFO resources.

Deadlocks in ASURA "arise ... due to cyclic dependencies between finite
channel resources used by the requests and responses" (section 4.1).
There is one FIFO channel instance per (virtual channel, destination
quad): every node in a quad shares the channel instances entering that
quad, which is exactly the sharing the quad-placement relations reason
about statically.  :meth:`ChannelFabric.channel_for` routes a message
through V and :meth:`ChannelFabric.capacity` sizes its instance; the
transition relation (:mod:`repro.sim.models`) keeps the instances'
contents in its state tuple.

Dedicated channels (the paper's fix) are unbounded and can always accept.
"""

from __future__ import annotations

from typing import Optional

from ..core.assignment import ChannelAssignment

__all__ = ["ChannelFabric"]


class ChannelFabric:
    """Routing and capacities of the system's channel instances."""

    def __init__(
        self,
        assignment: ChannelAssignment,
        default_capacity: int = 1,
        capacities: Optional[dict[str, int]] = None,
    ) -> None:
        self.assignment = assignment
        self.default_capacity = default_capacity
        self.capacities = dict(capacities or {})

    def channel_for(self, msg: str, src_role: str, dst_role: str) -> str:
        """The virtual channel V assigns to this message/route."""
        return self.assignment.lookup(msg, src_role, dst_role)

    def capacity(self, vc: str) -> Optional[int]:
        """A channel instance's capacity; None for a dedicated channel."""
        if vc in self.assignment.dedicated:
            return None
        return self.capacities.get(vc, self.default_capacity)
