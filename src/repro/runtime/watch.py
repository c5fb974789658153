"""Live observation of an in-flight run: the ``repro watch`` command.

A journaled campaign (``repro mutate --journal``) or exploration
(``repro explore --journal``) leaves a crash-safe record of every
completed unit on disk *while it runs*; with ``--trace-out`` it also
streams lifecycle events (``unit.started``, ``campaign.progress``,
``explore.depth``, …) to a flush-per-event JSONL file.  This module
reads both from a **separate process** — nothing here talks to the run
itself — and renders what the run has done so far: per-stage progress,
throughput and ETA, the partial detection matrix, in-flight units.

Both inputs are append-only files that may be mid-write when read, so
both go through the package's one JSONL reader
(:func:`~repro.telemetry.sinks.scan_jsonl`), which drops a torn final
line — malformed, or complete JSON whose newline is not on disk yet.
The journal is read by :func:`~repro.runtime.journal.scan_journal`,
the same scanner a resume uses, so a snapshot counts exactly the units
a resume would restore: always a consistent prefix of the run.

``watch_once`` produces one snapshot dict — the machine interface
(``--json``) and what CI asserts against; :func:`render_snapshot` turns
it into the human block; :func:`run_watch` is the polling loop.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Optional

from ..telemetry.sinks import read_jsonl
from .journal import JournalError, scan_journal

__all__ = [
    "watch_once",
    "render_snapshot",
    "run_watch",
]

#: journal kinds this watcher understands, mapped to their unit noun.
_KINDS = {"mutation-campaign": "mutants", "explore": "depths"}

#: detection layers in pipeline order, as rendered in the matrix row.
_MATRIX_COLUMNS = ("invariants", "deadlock", "simulation", "oracle",
                   "escaped")


def _throughput(records: dict[Any, dict],
                now: float) -> tuple[Optional[float], Optional[float]]:
    """``(units_per_second, seconds_since_last_record)`` from the
    journal's record timestamps; rate needs at least two records."""
    stamps = sorted(float(r["ts"]) for r in records.values()
                    if isinstance(r.get("ts"), (int, float)))
    if not stamps:
        return None, None
    age = max(0.0, now - stamps[-1])
    if len(stamps) < 2 or stamps[-1] <= stamps[0]:
        return None, age
    return (len(stamps) - 1) / (stamps[-1] - stamps[0]), age


def _campaign_snapshot(snap: dict, records: dict[Any, dict]) -> None:
    """Fold campaign unit records into the snapshot: the partial
    detection matrix and failure outcomes."""
    matrix = {column: 0 for column in _MATRIX_COLUMNS}
    outcomes: dict[str, int] = {}
    for record in records.values():
        data = record.get("data") or {}
        layer = data.get("detected_by") or "escaped"
        if layer in matrix:
            matrix[layer] += 1
        outcome = data.get("outcome", "ok")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    snap["matrix"] = matrix
    snap["outcomes"] = outcomes


def _explore_snapshot(snap: dict, records: dict[Any, dict]) -> None:
    """Fold exploration depth records into cumulative totals plus the
    last few per-depth rows."""
    depths = []
    for record in sorted(records.values(),
                         key=lambda r: int(r.get("id", 0))):
        stats = (record.get("data") or {}).get("stats") or {}
        depths.append(stats)
    snap["depth"] = depths[-1].get("depth", 0) if depths else 0
    snap["states"] = sum(d.get("new_states", 0) for d in depths)
    snap["transitions"] = sum(d.get("transitions", 0) for d in depths)
    snap["violations"] = sum(d.get("violations", 0) for d in depths)
    snap["deadlocks"] = sum(d.get("deadlocks", 0) for d in depths)
    snap["per_depth"] = depths[-5:]


def _apply_events(snap: dict, events: list[dict]) -> None:
    """Fold the live event stream in: the campaign's declared total
    (the journal alone cannot know how many units are coming), units
    currently in flight, and anything the journal has not fsync'd yet."""
    total: Optional[int] = None
    done_events: Optional[int] = None
    in_flight: dict[Any, dict] = {}
    for event in events:
        etype = event.get("type")
        if etype in ("campaign.started", "explore.started"):
            total = event.get("total", total)
            snap["run_id"] = event.get("run_id")
        elif etype == "campaign.progress":
            total = event.get("total", total)
            done_events = event.get("done", done_events)
        elif etype == "unit.started":
            in_flight[event.get("unit_id")] = {
                "unit_id": event.get("unit_id"),
                "worker_id": event.get("worker_id"),
                "since_ts": event.get("ts"),
            }
        elif etype == "unit.finished":
            in_flight.pop(event.get("unit_id"), None)
        elif etype == "explore.depth":
            snap["frontier"] = event.get("frontier")
    snap["events_seen"] = len(events)
    snap["in_flight"] = sorted(
        in_flight.values(), key=lambda u: str(u["unit_id"]))
    if total is not None:
        snap["total"] = total
    if done_events is not None and done_events > snap.get("done", 0):
        # Events can be ahead of the journal (flush vs fsync); report
        # the freshest count either source supports.
        snap["done"] = done_events


def watch_once(journal_path: str, events_path: Optional[str] = None,
               now: Optional[float] = None) -> dict:
    """One consistent snapshot of an in-flight (or finished) run.

    Reads the checkpoint journal at ``journal_path`` and, when given,
    the ``--trace-out`` event stream at ``events_path``.  Raises
    ``OSError`` when the journal does not exist (yet),
    :class:`~repro.runtime.journal.JournalError` when it is corrupt
    before its tail, and ``ValueError`` for a journal kind this watcher
    does not understand."""
    now = time.time() if now is None else now
    header, records, _ = scan_journal(journal_path)
    header = header or {}
    kind = header.get("kind")
    if kind is not None and kind not in _KINDS:
        raise ValueError(
            f"journal {journal_path!r} has kind {kind!r}; "
            f"watch understands {sorted(_KINDS)}")
    rate, age = _throughput(records, now)
    snap: dict[str, Any] = {
        "journal": journal_path,
        "kind": kind,
        "header": header,
        "done": len(records),
        "total": None,
        "rate_per_second": rate,
        "last_record_age_seconds": age,
        "eta_seconds": None,
        "at": now,
    }
    if kind == "mutation-campaign":
        _campaign_snapshot(snap, records)
    elif kind == "explore":
        _explore_snapshot(snap, records)
    if events_path is not None:
        _apply_events(snap, read_jsonl(events_path))
    total = snap.get("total")
    if total and rate and total > snap["done"]:
        snap["eta_seconds"] = (total - snap["done"]) / rate
    return snap


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render_snapshot(snap: dict) -> str:
    """The human text block for one snapshot."""
    kind = snap.get("kind") or "run"
    noun = _KINDS.get(kind, "units")
    done = snap.get("done", 0)
    total = snap.get("total")
    progress = f"{done}/{total}" if total else f"{done}"
    lines = [f"== {kind}: {progress} {noun} done =="]

    rate = snap.get("rate_per_second")
    bits = []
    if rate:
        bits.append(f"{rate * 60:.1f} {noun}/min")
    if snap.get("eta_seconds") is not None:
        bits.append(f"ETA {_fmt_seconds(snap['eta_seconds'])}")
    if snap.get("last_record_age_seconds") is not None:
        bits.append(
            f"last checkpoint {_fmt_seconds(snap['last_record_age_seconds'])}"
            f" ago")
    if bits:
        lines.append("  " + "  ".join(bits))

    if "matrix" in snap:
        matrix = snap["matrix"]
        lines.append("  detection so far: " + "  ".join(
            f"{column}={matrix.get(column, 0)}"
            for column in _MATRIX_COLUMNS))
        failures = {k: v for k, v in snap.get("outcomes", {}).items()
                    if k != "ok"}
        if failures:
            lines.append("  failures: " + "  ".join(
                f"{k}={v}" for k, v in sorted(failures.items())))
    if "states" in snap:
        lines.append(
            f"  depth {snap.get('depth', 0)}: {snap['states']} states, "
            f"{snap['transitions']} transitions, "
            f"{snap['violations']} violations, "
            f"{snap['deadlocks']} deadlocks")
        if snap.get("frontier") is not None:
            lines.append(f"  frontier: {snap['frontier']} states")

    in_flight = snap.get("in_flight")
    if in_flight:
        shown = ", ".join(
            str(u["unit_id"]) + (f"@{u['worker_id']}" if u.get("worker_id")
                                 else "")
            for u in in_flight[:8])
        extra = f" (+{len(in_flight) - 8} more)" if len(in_flight) > 8 else ""
        lines.append(f"  in flight: {shown}{extra}")
    return "\n".join(lines)


def run_watch(journal_path: str, events_path: Optional[str] = None,
              interval: float = 2.0, once: bool = False,
              as_json: bool = False, stream=None) -> int:
    """The ``repro watch`` loop: poll, render, repeat.

    With ``once`` a single snapshot is emitted and the exit code
    reflects whether the journal was readable (2 when missing — CI
    should fail loudly, not hang).  Without it the loop waits for the
    journal to appear, re-renders every ``interval`` seconds, and exits
    0 on Ctrl-C."""
    stream = stream if stream is not None else sys.stdout
    while True:
        try:
            snap = watch_once(journal_path, events_path)
        except OSError as exc:
            if once:
                print(f"repro: error: cannot read journal: {exc}",
                      file=sys.stderr)
                return 2
            print(f"waiting for journal {journal_path!r} …", file=stream,
                  flush=True)
            snap = None
        except (JournalError, ValueError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        if snap is not None:
            if as_json:
                print(json.dumps(snap, sort_keys=True), file=stream,
                      flush=True)
            else:
                if not once and stream is sys.stdout \
                        and sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="", file=stream)
                print(render_snapshot(snap), file=stream, flush=True)
        if once:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
