"""Virtual channel assignments (the paper's table ``V``, section 4.1) and
the message-column specs of the controller tables.

These are the plain data the deadlock analysis reads; they live apart
from :mod:`repro.core.deadlock` so a protocol can declare its channels
and message columns without loading the analysis engine.
:mod:`repro.core.deadlock` re-exports every name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

if TYPE_CHECKING:
    from .database import ProtocolDatabase
    from .table import ControllerTable

__all__ = [
    "VCAssignment",
    "ChannelAssignment",
    "MissingAssignmentError",
    "MessageTriple",
    "ControllerMessageSpec",
]


class MissingAssignmentError(KeyError):
    """A controller row exchanges a message with no entry in V."""


@dataclass(frozen=True)
class VCAssignment:
    """One row of V: message ``m`` from ``s`` to ``d`` rides channel ``v``."""

    message: str
    src: str
    dst: str
    channel: str


class ChannelAssignment:
    """The paper's table V plus the set of dedicated (unbounded) channels."""

    def __init__(
        self,
        name: str,
        assignments: Iterable[VCAssignment],
        dedicated: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.assignments = tuple(assignments)
        self.dedicated = frozenset(dedicated)
        self._index: dict[tuple[str, str, str], str] = {}
        for a in self.assignments:
            key = (a.message, a.src, a.dst)
            if key in self._index and self._index[key] != a.channel:
                raise ValueError(
                    f"V {name!r}: conflicting channels for {key}: "
                    f"{self._index[key]} vs {a.channel}"
                )
            self._index[key] = a.channel

    def lookup(self, message: str, src: str, dst: str) -> str:
        try:
            return self._index[(message, src, dst)]
        except KeyError:
            raise MissingAssignmentError(
                f"V {self.name!r} has no channel for message {message!r} "
                f"from {src!r} to {dst!r}"
            ) from None

    def channels(self) -> set[str]:
        return {a.channel for a in self.assignments}

    def blocking_channels(self) -> set[str]:
        """Channels that participate in the VCG (finite resources)."""
        return self.channels() - self.dedicated

    def to_table(self, db: ProtocolDatabase, table_name: Optional[str] = None) -> str:
        """Materialize V in the database with the paper's column names.

        V is a relation, so duplicate (consistent) assignments collapse to
        one row — the composition joins rely on (m, s, d) being a key.
        """
        name = table_name or f"V_{self.name}"
        seen: set[VCAssignment] = set()
        unique = [a for a in self.assignments
                  if not (a in seen or seen.add(a))]
        db.create_table_from_rows(
            name,
            ("m", "s", "d", "v"),
            [
                {"m": a.message, "s": a.src, "d": a.dst, "v": a.channel}
                for a in unique
            ],
        )
        return name

    def reassigned(
        self,
        name: str,
        changes: Mapping[tuple[str, str, str], str],
        dedicated: Optional[Iterable[str]] = None,
    ) -> "ChannelAssignment":
        """A new assignment with some (m, s, d) entries moved to other
        channels — the paper's debugging loop 'resolved by modifying V'."""
        new = []
        for a in self.assignments:
            key = (a.message, a.src, a.dst)
            ch = changes.get(key, a.channel)
            new.append(VCAssignment(a.message, a.src, a.dst, ch))
        ded = self.dedicated if dedicated is None else frozenset(dedicated)
        return ChannelAssignment(name, new, ded)


@dataclass(frozen=True)
class MessageTriple:
    """The (message, source, destination) column triple of one message
    column of a controller table (paper section 2.1)."""

    msg: str
    src: str
    dst: str


@dataclass
class ControllerMessageSpec:
    """Which columns of a controller table carry messages.

    ``input_triple`` names the incoming-message columns; each entry of
    ``output_triples`` names one outgoing-message column group.
    """

    controller: ControllerTable
    input_triple: MessageTriple
    output_triples: tuple[MessageTriple, ...]

    @property
    def name(self) -> str:
        return self.controller.schema.name
