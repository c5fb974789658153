"""Trace context: attributing telemetry to the unit of work behind it.

An event stream where every record looks the same is useless for
debugging mutant #37.  A :class:`TraceContext` names the run
(``run_id``, one random identifier per campaign), the unit of work
(``unit_id``, the campaign's mutant id), and the worker executing it
(``worker_id``: ``"inline"``, since every mutant runs in the calling
process).

The active context lives in a :class:`contextvars.ContextVar`, and the
tracer stamps the context's fields onto every event it emits (see
:meth:`Tracer.emit`).  :func:`use_context` scopes it to one unit.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
from dataclasses import dataclass
from typing import Any, Iterator, Optional

__all__ = [
    "TraceContext",
    "current_context",
    "use_context",
    "new_run_id",
]

#: the event-field names a context contributes; kept stable so sinks and
#: the watch tooling can rely on them.
CONTEXT_FIELDS = ("run_id", "unit_id", "worker_id")


@dataclass(frozen=True)
class TraceContext:
    """Who is doing what: one run, one unit, one worker."""

    run_id: str
    unit_id: Any = None
    worker_id: Optional[str] = None

    def as_fields(self) -> dict[str, Any]:
        """The event fields this context stamps (``None`` values are
        omitted to keep the stream lean)."""
        fields: dict[str, Any] = {"run_id": self.run_id}
        if self.unit_id is not None:
            fields["unit_id"] = self.unit_id
        if self.worker_id is not None:
            fields["worker_id"] = self.worker_id
        return fields


_current: contextvars.ContextVar[Optional[TraceContext]] = \
    contextvars.ContextVar("repro_trace_context", default=None)


def current_context() -> Optional[TraceContext]:
    """The active trace context, if any."""
    return _current.get()


@contextlib.contextmanager
def use_context(context: TraceContext) -> Iterator[TraceContext]:
    """Scope ``context`` to a block: one unit of work."""
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


def new_run_id() -> str:
    """A short, collision-resistant identifier for one run."""
    return f"{int(time.time()):x}-{os.getpid():x}-{os.urandom(4).hex()}"
