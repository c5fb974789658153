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

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.deadlock import ChannelAssignment

__all__ = ["Envelope", "VirtualChannelQueue", "ChannelFabric"]


@dataclass(frozen=True)
class Envelope:
    """One message in flight between two concrete endpoints."""

    msg: str
    src: str        # endpoint id, e.g. "node:1.0", "dir:2", "mem:2"
    dst: str
    addr: str       # cache-line address, e.g. "A"
    src_role: str   # quad role used for V routing and table lookups
    dst_role: str
    seq: int = 0    # global send order, for traces

    def __str__(self) -> str:
        return f"{self.msg}({self.addr}) {self.src}->{self.dst}"


class VirtualChannelQueue:
    """One FIFO instance of a virtual channel into one quad."""

    def __init__(self, name: str, dst_quad: int, capacity: Optional[int]) -> None:
        self.name = name
        self.dst_quad = dst_quad
        self.capacity = capacity  # None = unbounded (dedicated path)
        self._q: deque[Envelope] = deque()

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.dst_quad)

    def __len__(self) -> int:
        return len(self._q)

    def can_accept(self, n: int = 1) -> bool:
        if self.capacity is None:
            return True
        return len(self._q) + n <= self.capacity

    @property
    def full(self) -> bool:
        return not self.can_accept(1)

    def push(self, env: Envelope) -> None:
        if not self.can_accept(1):
            raise RuntimeError(f"channel {self.key} is full")
        self._q.append(env)

    def head(self) -> Optional[Envelope]:
        return self._q[0] if self._q else None

    def pop(self) -> Envelope:
        return self._q.popleft()

    def __iter__(self) -> Iterator[Envelope]:
        return iter(self._q)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"VC({self.name}->q{self.dst_quad}, {len(self._q)}/{cap})"


class ChannelFabric:
    """All channel instances of the system, created lazily."""

    def __init__(
        self,
        assignment: ChannelAssignment,
        default_capacity: int = 1,
        capacities: Optional[dict[str, int]] = None,
    ) -> None:
        self.assignment = assignment
        self.default_capacity = default_capacity
        self.capacities = dict(capacities or {})
        self._queues: dict[tuple[str, int], VirtualChannelQueue] = {}

    def channel_for(self, msg: str, src_role: str, dst_role: str) -> str:
        """The virtual channel V assigns to this message/route."""
        return self.assignment.lookup(msg, src_role, dst_role)

    def capacity(self, vc: str) -> Optional[int]:
        """A channel instance's capacity; None for a dedicated channel."""
        if vc in self.assignment.dedicated:
            return None
        return self.capacities.get(vc, self.default_capacity)

    def queue(self, vc: str, dst_quad: int) -> VirtualChannelQueue:
        key = (vc, dst_quad)
        q = self._queues.get(key)
        if q is None:
            q = VirtualChannelQueue(vc, dst_quad, self.capacity(vc))
            self._queues[key] = q
        return q

    def queue_for(
        self, msg: str, src_role: str, dst_role: str, dst_quad: int
    ) -> VirtualChannelQueue:
        return self.queue(self.channel_for(msg, src_role, dst_role), dst_quad)

    def queues(self) -> list[VirtualChannelQueue]:
        return list(self._queues.values())

    def pending_messages(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def occupancy(self) -> dict[tuple[str, int], int]:
        return {q.key: len(q) for q in self._queues.values() if len(q)}
