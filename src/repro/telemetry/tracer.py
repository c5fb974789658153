"""The tracer: the process-wide collection point for telemetry.

One global tracer is active at a time.  The default is
:data:`NULL_TRACER`, a no-op collector that still hands out timed
:class:`~repro.telemetry.spans.Span` objects (call sites report
durations either way) but records nothing — so instrumented code pays
essentially nothing when telemetry is off.  ``repro.telemetry.configure``
installs a recording :class:`Tracer`; pipeline stages and the database
layer fetch the active tracer with :func:`get_tracer` at call time, so
enabling telemetry never requires re-wiring objects.

Everything a :class:`Tracer` collects — span statistics, metrics, SQL
query statistics, slow-query plans — is aggregated in process and can be
exported through the sinks in :mod:`repro.telemetry.sinks`.
"""

from __future__ import annotations

import contextlib
import re
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from .context import current_context
from .metrics import MetricsRegistry
from .spans import Span, SpanStats

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SqlStatementStats",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

_WS = re.compile(r"\s+")

#: statement text is collapsed/truncated to this many characters in
#: aggregates and events — full statements can embed whole cross joins.
MAX_STATEMENT_CHARS = 300


def normalize_sql(sql: str) -> str:
    """Collapse whitespace and truncate, for stable statement keys."""
    flat = _WS.sub(" ", sql).strip()
    if len(flat) > MAX_STATEMENT_CHARS:
        flat = flat[:MAX_STATEMENT_CHARS] + " …"
    return flat


@dataclass
class SqlStatementStats:
    """Aggregate execution statistics for one normalized statement."""

    statement: str
    count: int = 0
    total_seconds: float = 0.0
    rows: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view used by run reports."""
        return {
            "statement": self.statement,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "rows": self.rows,
            "errors": self.errors,
        }


#: event fields the tracer stamps on every ``span`` event itself; user
#: span attributes with these names are emitted as ``attr_<name>``.
_RESERVED_SPAN_FIELDS = frozenset(
    {"name", "seconds", "status", "parent", "depth", "start_wall"})


class Tracer:
    """A recording telemetry collector.

    Collects (1) span statistics keyed by span name, (2) metrics through
    a :class:`~repro.telemetry.metrics.MetricsRegistry`, (3) per-statement
    SQL aggregates plus captured query plans for slow statements, and
    (4) a raw event stream dispatched to attached sinks (see
    :mod:`repro.telemetry.sinks`).  Not thread-safe: one tracer serves
    one single-threaded run, which is how every pipeline here executes.
    """

    enabled = True

    def __init__(
        self,
        sinks: Optional[list] = None,
        slow_sql_seconds: Optional[float] = 0.05,
        max_slow_queries: int = 50,
    ) -> None:
        self.registry = MetricsRegistry()
        self.sinks = list(sinks or ())
        self.span_stats: dict[str, SpanStats] = {}
        self.sql_statements: dict[str, SqlStatementStats] = {}
        self.slow_queries: list[dict[str, Any]] = []
        self.slow_sql_seconds = slow_sql_seconds
        self.max_slow_queries = max_slow_queries
        self.events_emitted = 0
        self.started_wall = time.time()
        self._stack: list[Span] = []

    # -- spans ----------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """A new nestable timing scope; use as a context manager."""
        return Span(self, name, attributes)

    def _enter_span(self, span: Span) -> None:
        if self._stack:
            span.parent = self._stack[-1].name
            span.depth = len(self._stack)
        self._stack.append(span)

    def _exit_span(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # unbalanced exit; recover
            self._stack.remove(span)
        stats = self.span_stats.get(span.name)
        if stats is None:
            stats = self.span_stats[span.name] = SpanStats()
        stats.record(span)
        # Span attributes share the event namespace with the fields the
        # tracer stamps itself; an attribute named e.g. ``depth`` must
        # not crash emission, so colliding names are prefixed instead.
        attributes = {
            (f"attr_{key}" if key in _RESERVED_SPAN_FIELDS else key): value
            for key, value in span.attributes.items()
        }
        self.emit(
            "span",
            name=span.name,
            seconds=span.seconds,
            status=span.status,
            parent=span.parent,
            depth=span.depth,
            start_wall=span.start_wall,
            **attributes,
        )

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- metrics ----------------------------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        """Increment the counter ``name``."""
        self.registry.incr(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name``."""
        self.registry.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram sample for ``name``."""
        self.registry.observe(name, value)

    # -- events ----------------------------------------------------------------
    def emit(self, event_type: str, **fields: Any) -> None:
        """Dispatch one event to every attached sink.

        The active :class:`~repro.telemetry.context.TraceContext` (if
        any) stamps its ``run_id``/``unit_id``/``worker_id`` fields onto
        the event, so everything recorded inside a worker's unit of work
        arrives attributed.  Explicit ``fields`` win over the context."""
        self.events_emitted += 1
        if not self.sinks:
            return
        context = current_context()
        event = {"type": event_type, "ts": time.time(),
                 **(context.as_fields() if context is not None else {}),
                 **fields}
        for sink in self.sinks:
            sink.write(event)

    # -- SQL tracing ----------------------------------------------------------------
    def record_sql(
        self,
        sql: str,
        n_params: int = 0,
        rows: Optional[int] = None,
        seconds: float = 0.0,
        status: str = "ok",
        error: Optional[str] = None,
        plan: Optional[list] = None,
        changed: Optional[int] = None,
    ) -> None:
        """Record one executed statement (called by ``ProtocolDatabase``).

        ``rows`` counts rows *returned* (SELECT fetches), ``changed``
        counts rows *written* (DML rowcount).  Failed statements are
        recorded too (``status="error"`` with the sqlite3 exception class
        in ``error``) so that query failures are as observable as slow
        queries.
        """
        self.incr("sql.queries")
        self.observe("sql.seconds", seconds)
        if rows:
            self.incr("sql.rows_returned", rows)
        if changed:
            self.incr("sql.rows_changed", changed)
        if status != "ok":
            self.incr("sql.errors")
        statement = normalize_sql(sql)
        stats = self.sql_statements.get(statement)
        if stats is None:
            stats = self.sql_statements[statement] = SqlStatementStats(statement)
        stats.count += 1
        stats.total_seconds += seconds
        stats.rows += (rows or 0) + (changed or 0)
        if status != "ok":
            stats.errors += 1
        slow = (
            self.slow_sql_seconds is not None
            and seconds >= self.slow_sql_seconds
        )
        if slow:
            if len(self.slow_queries) < self.max_slow_queries:
                self.slow_queries.append({
                    "statement": statement,
                    "seconds": seconds,
                    "rows": rows,
                    "plan": plan,
                })
            else:
                # No silent caps: a slow query beyond the retention
                # limit is counted, not just dropped (see the
                # telemetry.dropped.* rows of the metric catalog).
                self.incr("telemetry.dropped.slow_queries")
        self.emit(
            "sql",
            statement=statement,
            n_params=n_params,
            rows=rows,
            changed=changed,
            seconds=seconds,
            status=status,
            error=error,
            plan=plan if slow else None,
        )

    def record_sql_rows(self, sql: str, n: int) -> None:
        """Attribute ``n`` fetched rows to an already-recorded statement
        (SELECT row counts are only known after the fetch)."""
        self.incr("sql.rows_returned", n)
        stats = self.sql_statements.get(normalize_sql(sql))
        if stats is not None:
            stats.rows += n

    def wants_plan(self, seconds: float) -> bool:
        """Should the caller capture ``EXPLAIN QUERY PLAN`` for a query
        that took ``seconds``?  (Only while slow slots remain.)"""
        return (
            self.slow_sql_seconds is not None
            and seconds >= self.slow_sql_seconds
            and len(self.slow_queries) < self.max_slow_queries
        )

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Flush and close every attached sink."""
        for sink in self.sinks:
            sink.close()


class NullTracer(Tracer):
    """The disabled tracer: spans still time, nothing is recorded.

    Every recording entry point is overridden with a ``pass`` body, so
    instrumented hot paths (one attribute check plus one no-op call)
    stay within noise of un-instrumented code.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sinks=None, slow_sql_seconds=None)

    def _enter_span(self, span: Span) -> None:
        pass

    def _exit_span(self, span: Span) -> None:
        pass

    def incr(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def emit(self, event_type: str, **fields: Any) -> None:
        pass

    def record_sql(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_sql_rows(self, sql: str, n: int) -> None:
        pass

    def wants_plan(self, seconds: float) -> bool:
        return False


#: the process-wide disabled tracer (shared; it holds no state).
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The currently active tracer (the no-op tracer by default)."""
    return _active


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Context manager installing ``tracer`` for the block's duration."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
