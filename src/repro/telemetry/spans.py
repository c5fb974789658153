"""Spans: named, nestable timing scopes.

A span measures one phase of the pipeline — generating a table, running
one invariant query, a whole simulation — with both a wall clock (so
events can be ordered across runs) and a monotonic clock (so durations
are immune to clock steps).  Spans nest: entering a span while another
is open records the parent, giving a call-tree of where time went.

Spans always *time* themselves, even under the disabled
:class:`~repro.telemetry.tracer.NullTracer`, because call sites such as
``FamilySystem.generation_seconds`` report the measured duration in
their own results regardless of whether telemetry is collecting events.
What the tracer controls is whether the finished span is *recorded*
(aggregated into span statistics and emitted to sinks).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Span", "SpanStats"]


class Span:
    """One timing scope; use as a context manager.

    Created via :meth:`Tracer.span` (or the module-level
    :func:`repro.telemetry.span` helper), never directly.  After the
    ``with`` block exits, :attr:`seconds` holds the monotonic duration
    and :attr:`status` is ``"ok"`` or ``"error"`` (an exception escaped).
    Attributes passed at creation — or added to :attr:`attributes`
    inside the block — are recorded when the span closes.
    """

    __slots__ = (
        "name", "attributes", "parent", "depth",
        "start_wall", "seconds", "status", "_t0", "_tracer",
    )

    def __init__(self, tracer, name: str, attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.parent: Optional[str] = None
        self.depth: int = 0
        self.start_wall: float = 0.0
        self.seconds: float = 0.0
        self.status: str = "ok"
        self._t0: float = 0.0
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self._tracer._enter_span(self)
        self.start_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
        self._tracer._exit_span(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s, {self.status})"


@dataclass
class SpanStats:
    """Aggregate statistics for all closed spans sharing one name."""

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = field(default=float("inf"))
    max_seconds: float = 0.0
    errors: int = 0

    def record(self, span: Span) -> None:
        """Fold one closed span into the aggregate."""
        self.count += 1
        self.total_seconds += span.seconds
        self.min_seconds = min(self.min_seconds, span.seconds)
        self.max_seconds = max(self.max_seconds, span.seconds)
        if span.status != "ok":
            self.errors += 1

    @property
    def mean_seconds(self) -> float:
        """Average duration across recorded spans (0.0 when empty)."""
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view used by run reports."""
        return {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
            "min_seconds": self.min_seconds if self.count else 0.0,
            "max_seconds": self.max_seconds,
            "errors": self.errors,
        }
