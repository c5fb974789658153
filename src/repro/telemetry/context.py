"""Trace context: correlating telemetry across workers and processes.

A long campaign fans units out across child processes; an event stream
where every record looks the same is useless for debugging unit #37's
hang.  A :class:`TraceContext` names the run (``run_id``, one random
identifier per fan-out), the unit of work (``unit_id``, the campaign's
mutant id or the explorer's batch index), and the worker executing it
(``worker_id``: ``"inline"`` for units run in the caller, or a
child-process ordinal such as ``"proc-3"``).

The active context lives in a :class:`contextvars.ContextVar`, and the
tracer stamps the context's fields onto every event it emits (see
:meth:`Tracer.emit`).  Inline units scope it to the unit with
:func:`use_context`; in child processes the context is installed once
at startup by the relay (see :mod:`repro.telemetry.relay`), so every
spooled span/SQL/metric event arrives in the parent already attributed.
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
    "set_context",
    "use_context",
    "new_run_id",
]

#: the event-field names a context contributes; kept stable so sinks and
#: the watch tooling can rely on them.
CONTEXT_FIELDS = ("run_id", "unit_id", "worker_id")


@dataclass(frozen=True)
class TraceContext:
    """Who is doing what: one fan-out run, one unit, one worker."""

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


def set_context(context: Optional[TraceContext]) -> None:
    """Install ``context`` for the rest of this process's life — the
    child-process form, where nothing outlives the context."""
    _current.set(context)


@contextlib.contextmanager
def use_context(context: TraceContext) -> Iterator[TraceContext]:
    """Scope ``context`` to a block (the inline-unit form)."""
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


def new_run_id() -> str:
    """A short, collision-resistant identifier for one fan-out run."""
    return f"{int(time.time()):x}-{os.getpid():x}-{os.urandom(4).hex()}"
