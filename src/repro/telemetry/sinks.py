"""Telemetry sinks: JSONL event stream, text summary, JSON run report.

Three export formats for one :class:`~repro.telemetry.tracer.Tracer`,
and the package's one JSONL reader:

* :class:`JsonlSink` — every event (spans, SQL queries, simulator
  messages) appended as one JSON object per line while the run executes;
  the format round-trips through :func:`read_jsonl`.
* :func:`scan_jsonl` — the one reader of every append-only JSONL file
  in the package: ``--trace-out`` streams and (through
  :mod:`repro.runtime.journal`) checkpoint journals.  A final line that
  is malformed or lacks its newline was never written durably and is
  dropped; corruption anywhere before the tail raises.
* :func:`render_summary` — the human ``--profile`` text: where the time
  went, which statements dominated, what the counters say.
* :func:`build_report` / :func:`write_report` — the machine-readable
  run report (schema ``repro.telemetry.report/v1``, documented in
  ``docs/OBSERVABILITY.md``) that benchmarks and CI diff across runs.
"""

from __future__ import annotations

import io
import json
import os
import platform
import time
from typing import Any, Optional, Sequence

from .tracer import Tracer

__all__ = [
    "JsonlSink",
    "ListSink",
    "read_jsonl",
    "scan_jsonl",
    "render_summary",
    "build_report",
    "write_report",
]

#: schema identifier stamped into every run report.
REPORT_SCHEMA = "repro.telemetry.report/v1"


class JsonlSink:
    """Appends each event as one JSON line to a file (``--trace-out``
    streams).

    Every event is flushed as it is written, so ``tail -f`` and
    ``repro watch`` observe events as they happen, and a run killed
    mid-unit leaves every event up to the kill on disk."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[io.TextIOBase] = open(path, "w", encoding="utf-8")

    def write(self, event: dict[str, Any]) -> None:
        """Serialize one event; non-JSON values fall back to ``str``."""
        if self._fh is not None:
            self._fh.write(json.dumps(event, default=str) + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ListSink:
    """Collects events into a list in memory — for tests and tooling."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def write(self, event: dict[str, Any]) -> None:
        """Append one event."""
        self.events.append(event)

    def close(self) -> None:
        """No resources to release."""

    def of_type(self, event_type: str) -> list[dict[str, Any]]:
        """Only the events with the given ``type``."""
        return [e for e in self.events if e.get("type") == event_type]


def scan_jsonl(path: str) -> tuple[list[dict[str, Any]], int]:
    """Parse an append-only JSONL file: ``(records, durable_end)``.

    ``records`` holds every JSON object on a complete line, in file
    order; ``durable_end`` is the byte offset just past the last durable
    line.  A final line that is malformed *or* missing its newline is
    the tear a kill mid-append leaves behind: it was never durable and
    is dropped.  A malformed line anywhere before the tail is real
    corruption and raises ``ValueError`` naming the line.  A missing
    file raises ``OSError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    records: list[dict[str, Any]] = []
    durable_end = 0
    lineno = 0
    while durable_end < len(raw):
        newline = raw.find(b"\n", durable_end)
        if newline == -1:
            break  # the newline never hit the disk: not durable
        chunk = raw[durable_end:newline]
        lineno += 1
        if chunk.strip():
            try:
                record = json.loads(chunk.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                if newline + 1 >= len(raw):
                    break  # torn tail write from a kill mid-append
                raise ValueError(
                    f"{path!r} is corrupt at line {lineno}: {exc}") from exc
            if isinstance(record, dict):
                records.append(record)
        durable_end = newline + 1
    return records, durable_end


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """The durable events of a JSONL stream (see :func:`scan_jsonl`);
    a file that does not exist yet reads as no events."""
    try:
        return scan_jsonl(path)[0]
    except FileNotFoundError:
        return []


# -- text summary -------------------------------------------------------------
def render_summary(tracer: Tracer, top: int = 10) -> str:
    """The ``--profile`` text: spans, SQL, and counters, widest first."""
    lines = ["== telemetry summary =="]

    if tracer.span_stats:
        lines.append("-- spans (by total time) --")
        lines.append(f"  {'span':<28}{'count':>7}{'total s':>10}{'mean s':>10}{'max s':>10}")
        ordered = sorted(
            tracer.span_stats.items(),
            key=lambda kv: kv[1].total_seconds,
            reverse=True,
        )
        for name, s in ordered[:top]:
            lines.append(
                f"  {name:<28}{s.count:>7}{s.total_seconds:>10.3f}"
                f"{s.mean_seconds:>10.4f}{s.max_seconds:>10.4f}"
            )

    sql_hist = tracer.registry.histograms.get("sql.seconds")
    if sql_hist is not None:
        h = sql_hist.as_dict()
        lines.append("-- sql --")
        lines.append(
            f"  {int(tracer.registry.counter('sql.queries'))} queries, "
            f"{int(tracer.registry.counter('sql.rows_returned'))} rows returned, "
            f"{int(tracer.registry.counter('sql.errors'))} errors"
        )
        lines.append(
            f"  latency p50 {h['p50'] * 1e3:.2f}ms  p90 {h['p90'] * 1e3:.2f}ms  "
            f"p99 {h['p99'] * 1e3:.2f}ms  max {h['max'] * 1e3:.2f}ms"
        )
        slowest = sorted(
            tracer.sql_statements.values(),
            key=lambda s: s.total_seconds,
            reverse=True,
        )
        for s in slowest[:top]:
            lines.append(
                f"    {s.total_seconds:>8.3f}s x{s.count:<5} {s.statement[:90]}"
            )

    counters = {
        k: v for k, v in sorted(tracer.registry.counters.items())
        if not k.startswith("sql.")
    }
    if counters:
        lines.append("-- counters --")
        for name, value in counters.items():
            lines.append(f"  {name:<34}{value:>12g}")
    if tracer.registry.gauges:
        lines.append("-- gauges --")
        for name, value in sorted(tracer.registry.gauges.items()):
            lines.append(f"  {name:<34}{value:>12g}")

    if len(lines) == 1:
        lines.append("  (nothing recorded)")
    return "\n".join(lines)


# -- machine-readable run report -----------------------------------------------
def build_report(
    tracer: Tracer,
    command: Optional[str] = None,
    argv: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Assemble the JSON run report for one tracer's lifetime."""
    metrics = tracer.registry.snapshot()
    counters = metrics["counters"]
    slowest = sorted(
        tracer.sql_statements.values(),
        key=lambda s: s.total_seconds,
        reverse=True,
    )
    sql_seconds = tracer.registry.histograms.get("sql.seconds")
    checks = counters.get("invariant.checks", 0)
    failed = counters.get("invariant.failed", 0)
    # No silent caps: retention overflow (slow-query slots, histogram
    # reservoirs) surfaces as an explicit ``dropped`` section.  The key
    # appears only when something was dropped, keeping healthy reports
    # byte-identical to previous code versions.
    dropped = {
        name[len("telemetry.dropped."):]: value
        for name, value in counters.items()
        if name.startswith("telemetry.dropped.")
    }
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "started_at": tracer.started_wall,
        "wall_seconds": time.time() - tracer.started_wall,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "events_emitted": tracer.events_emitted,
        "spans": {
            name: stats.as_dict()
            for name, stats in sorted(tracer.span_stats.items())
        },
        "counters": counters,
        "gauges": metrics["gauges"],
        "histograms": metrics["histograms"],
        "sql": {
            "queries": counters.get("sql.queries", 0),
            "rows_returned": counters.get("sql.rows_returned", 0),
            "errors": counters.get("sql.errors", 0),
            "seconds": sql_seconds.as_dict() if sql_seconds else None,
            "slowest_statements": [s.as_dict() for s in slowest[:10]],
            "slow_queries": tracer.slow_queries,
        },
        "invariants": {
            "checks": checks,
            "passed": counters.get("invariant.passed", 0),
            "failed": failed,
            "violations": counters.get("invariant.violations", 0),
        },
        **({"dropped": dropped} if dropped else {}),
    }


def write_report(
    tracer: Tracer,
    path: str,
    command: Optional[str] = None,
    argv: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Build the run report and write it to ``path`` atomically
    (temp file + rename — a crash mid-write never leaves a truncated
    report for CI to choke on); returns the dict."""
    from ..runtime.atomic import atomic_write_json

    report = build_report(tracer, command=command, argv=argv)
    atomic_write_json(path, report)
    return report
