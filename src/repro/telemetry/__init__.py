"""Unified telemetry: spans, metrics, SQL query tracing, run reports.

The paper's methodology turns verification into database work — table
generation in minutes instead of a 6-hour constraint solve, invariants
as ``SELECT … = empty`` queries — and this package makes that cost
visible.  It is dependency-free and off by default: the active tracer is
a no-op :class:`~repro.telemetry.tracer.NullTracer` until
:func:`configure` installs a recording one, so the instrumented pipeline
stages (generator, invariant checker, deadlock analyzer, mapper,
simulator, and the ``ProtocolDatabase`` choke point) cost nothing
measurable when telemetry is disabled.

Typical use, mirroring the CLI's ``--profile/--trace-out/--report-out``::

    from repro import telemetry

    tracer = telemetry.configure(trace_path="events.jsonl")
    with telemetry.span("generate.table", table="D"):
        ...
    telemetry.get_tracer().incr("invariant.violations", 3)
    telemetry.write_report(tracer, "report.json", command="check")
    telemetry.shutdown()

Span naming conventions, the metric catalog, and the report schema are
documented in ``docs/OBSERVABILITY.md``.  The sinks and reports load
on first use, so instrumented code that only opens spans never imports
them.
"""

from __future__ import annotations

import importlib
from typing import Any, Optional

from .context import (
    TraceContext,
    current_context,
    new_run_id,
    use_context,
)
from .metrics import Histogram, MetricsRegistry
from .spans import Span, SpanStats
from .tracer import (
    NULL_TRACER,
    NullTracer,
    SqlStatementStats,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Span", "SpanStats",
    "Histogram", "MetricsRegistry",
    "Tracer", "NullTracer", "NULL_TRACER", "SqlStatementStats",
    "JsonlSink", "ListSink",
    "TraceContext", "current_context", "use_context", "new_run_id",
    "get_tracer", "set_tracer", "use_tracer",
    "configure", "shutdown", "span",
    "build_report", "write_report", "render_summary", "read_jsonl",
    "scan_jsonl",
]

#: Public names of the sinks module, loaded on first use.
_LAZY = frozenset(("JsonlSink", "ListSink", "build_report", "read_jsonl",
                   "render_summary", "scan_jsonl", "write_report"))


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".sinks", __name__), name)


def configure(trace_path: Optional[str] = None) -> Tracer:
    """Install (and return) a recording tracer as the active tracer.

    ``trace_path`` attaches a :class:`JsonlSink` streaming every event to
    that file, flushed per event.  Statements slower than the tracer's
    default threshold get their ``EXPLAIN QUERY PLAN`` captured.  Call
    :func:`shutdown` when the run ends.
    """
    from .sinks import JsonlSink

    sinks = [JsonlSink(trace_path)] if trace_path is not None else []
    tracer = Tracer(sinks=sinks)
    set_tracer(tracer)
    return tracer


def shutdown() -> None:
    """Close the active tracer's sinks and restore the no-op tracer."""
    tracer = get_tracer()
    tracer.close()
    set_tracer(NULL_TRACER)


def span(name: str, **attributes: Any) -> Span:
    """A span on the *active* tracer — the one-liner used by pipeline
    stages: ``with telemetry.span("generate.table", table="D"): …``."""
    return get_tracer().span(name, **attributes)
