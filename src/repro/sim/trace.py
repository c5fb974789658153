"""Trace rendering: Figure-2-style sequence diagrams in text.

The paper's Figure 2 draws a transaction as numbered arcs between the
local node, the directory/home, the remote node, and memory.  The
renderer lays simulation traces out the same way: one column per
endpoint, one numbered line per message.

    local      home       remote     memory
      |--1 readex-->|
      |            |--2 sinv-->|
      ...
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .system import TraceEvent

__all__ = ["render_sequence", "transaction_slice", "events_from_telemetry"]


def events_from_telemetry(events: Iterable[dict]) -> list[TraceEvent]:
    """Rebuild :class:`TraceEvent` records from a telemetry event stream.

    The simulator emits one ``sim.message`` JSONL event per delivered
    message (see ``--trace-out``); this filters a decoded stream (e.g.
    from :func:`repro.telemetry.read_jsonl`) back into the trace-event
    form the Figure-2 renderer consumes, so sequence diagrams can be
    drawn offline from a recorded run.
    """
    out: list[TraceEvent] = []
    for e in events:
        if e.get("type") != "sim.message":
            continue
        out.append(TraceEvent(
            step=e["step"], seq=e["seq"], msg=e["msg"],
            src=e["src"], dst=e["dst"], addr=e["addr"],
            channel=e["channel"],
        ))
    return out


def _endpoint_order(events: Sequence[TraceEvent]) -> list[str]:
    """Stable endpoint columns: sources/destinations in appearance order,
    grouped so nodes come first, then directories, memories, I/O."""
    seen: list[str] = []
    for e in events:
        for ep in (e.src, e.dst):
            if ep not in seen:
                seen.append(ep)
    rank = {"node": 0, "dir": 1, "mem": 2, "io": 3}
    return sorted(seen, key=lambda ep: (rank.get(ep.split(":")[0], 9),
                                        seen.index(ep)))


def transaction_slice(
    events: Iterable[TraceEvent], addr: str
) -> list[TraceEvent]:
    """Only the messages of one cache line's transactions."""
    return [e for e in events if e.addr == addr]


def render_sequence(
    events: Sequence[TraceEvent],
    addr: Optional[str] = None,
    width: int = 14,
) -> str:
    """Render a trace as a text sequence diagram.

    ``addr`` filters to one line's transaction (like Figure 2, which
    shows a single readex); message numbers give the relative order, as
    the numbers on the figure's arcs do.
    """
    if addr is not None:
        events = transaction_slice(events, addr)
    events = list(events)
    if not events:
        return "(no messages)"
    endpoints = _endpoint_order(events)
    col = {ep: i for i, ep in enumerate(endpoints)}

    header = "".join(ep.ljust(width) for ep in endpoints)
    lines = [header, ""]
    for n, e in enumerate(events, start=1):
        a, b = col[e.src], col[e.dst]
        left, right = (a, b) if a < b else (b, a)
        label = f" {n} {e.msg}({e.addr}) "
        span = (right - left) * width
        body = label.center(span - 2, "-")
        if a < b:
            arrow = "|" + body + ">"
        else:
            arrow = "<" + body + "|"
        line = " " * (left * width) + arrow
        lines.append(line)
    return "\n".join(lines)
