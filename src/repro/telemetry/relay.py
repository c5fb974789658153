"""Cross-process telemetry relay: worker spools, parent-side merge.

Process isolation (PR 4) used to silence the tracer in forked children,
so a campaign's actual verification work — the spans around each
detection layer, every SQL statement, every counter — vanished from
``--trace-out`` and the run report.  The relay fixes that without any
shared-memory coordination:

* Each child installs a :class:`RelayTracer` writing every event to a
  private, flush-per-event JSONL **spool** file through the same
  :class:`~repro.telemetry.sinks.JsonlSink` that writes
  ``--trace-out``.  Because metric mutations do not produce events on a
  plain tracer, the relay tracer additionally emits one ``metric`` event
  per ``incr``/``gauge``/``observe``, making the spool a complete
  replayable record of everything the worker's tracer saw.
* The parent merges each unit's spool as the unit finishes
  (:func:`merge_spool`): events are re-emitted to the parent's sinks
  with their original timestamps and worker attribution intact, span
  events are folded back into span statistics, ``sql`` events into the
  per-statement aggregates and slow-query capture, and ``metric``
  events replayed into the registry — so the merged tracer's report is
  what a single-process run would have produced, plus attribution.

The spool is flushed per event, so a worker that is SIGKILLed mid-unit
(watchdog timeout, OOM kill) still leaves every event up to the kill on
disk; :func:`~repro.telemetry.sinks.read_jsonl` drops the torn final
line such a death leaves behind, and reads a spool the worker never
created (it died before its first event) as no events.  Partial work
from crashed workers is therefore *visible*, attributed to its
``unit_id``, instead of silently discarded.
"""

from __future__ import annotations

import os
from typing import Any

from .sinks import read_jsonl
from .spans import SpanStats
from .tracer import Tracer, SqlStatementStats

__all__ = [
    "RelayTracer",
    "merge_spool",
    "merge_event",
]


class RelayTracer(Tracer):
    """The worker-side tracer: a recording tracer whose metric
    mutations are *also* emitted as ``metric`` events, so the spool
    alone reconstructs the worker's registry in the parent."""

    def incr(self, name: str, value: float = 1) -> None:
        """Increment a counter and spool the mutation."""
        super().incr(name, value)
        self.emit("metric", op="incr", name=name, value=value)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge and spool the mutation."""
        super().gauge(name, value)
        self.emit("metric", op="gauge", name=name, value=value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram sample and spool the mutation."""
        super().observe(name, value)
        self.emit("metric", op="observe", name=name, value=value)


def merge_event(tracer: Tracer, event: dict[str, Any]) -> None:
    """Fold one spooled worker event into ``tracer``.

    The event is re-emitted to the tracer's sinks verbatim (original
    ``ts`` and attribution fields preserved — explicit fields win over
    the parent's own context), and its aggregate effect is applied:
    ``span`` → span statistics, ``sql`` → per-statement aggregates plus
    slow-query capture, ``metric`` → the metrics registry."""
    fields = dict(event)
    etype = fields.pop("type", None)
    if etype is None:
        return
    tracer.emit(etype, **fields)
    if etype == "span":
        stats = tracer.span_stats.get(fields["name"])
        if stats is None:
            stats = tracer.span_stats[fields["name"]] = SpanStats()
        seconds = float(fields.get("seconds", 0.0))
        stats.count += 1
        stats.total_seconds += seconds
        stats.min_seconds = min(stats.min_seconds, seconds)
        stats.max_seconds = max(stats.max_seconds, seconds)
        if fields.get("status", "ok") != "ok":
            stats.errors += 1
    elif etype == "sql":
        statement = fields.get("statement", "")
        stats = tracer.sql_statements.get(statement)
        if stats is None:
            stats = tracer.sql_statements[statement] = \
                SqlStatementStats(statement)
        stats.count += 1
        seconds = float(fields.get("seconds", 0.0))
        stats.total_seconds += seconds
        stats.rows += (fields.get("rows") or 0) + (fields.get("changed") or 0)
        if fields.get("status", "ok") != "ok":
            stats.errors += 1
        # sql.* counters and the sql.seconds histogram are NOT applied
        # here: the worker's record_sql already incremented them, and
        # those mutations arrive as their own ``metric`` events.
        slow = (tracer.slow_sql_seconds is not None
                and seconds >= tracer.slow_sql_seconds)
        if slow:
            if len(tracer.slow_queries) < tracer.max_slow_queries:
                tracer.slow_queries.append({
                    "statement": statement,
                    "seconds": seconds,
                    "rows": fields.get("rows"),
                    "plan": fields.get("plan"),
                })
            else:
                tracer.registry.incr("telemetry.dropped.slow_queries")
    elif etype == "metric":
        op = fields.get("op")
        name = fields.get("name")
        value = fields.get("value", 0)
        if not name:
            return
        if op == "incr":
            tracer.registry.incr(name, value)
        elif op == "gauge":
            tracer.registry.set_gauge(name, value)
        elif op == "observe":
            tracer.registry.observe(name, value)


def merge_spool(tracer: Tracer, path: str,
                remove: bool = False) -> int:
    """Merge one worker spool file into ``tracer``; returns the number
    of events merged.  ``remove`` deletes the spool afterwards (the
    parent's per-unit cleanup)."""
    events = read_jsonl(path)
    for event in events:
        merge_event(tracer, event)
    if remove:
        try:
            os.remove(path)
        except OSError:
            pass
    return len(events)
