"""In-memory spans for the traced run, and per-layer self times.

Spans are recorded from the benchmark's own code around each public call
into a layer of ``repro``; the program's telemetry stays off, so a
traced op takes the same code path as an untraced one.  Each span has a
name, a start, an end, the id of its parent span and the id of the op it
belongs to.  The spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Iterator


class Spans:
    """A span stack plus every closed and open span of the run."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {"id": len(self.records), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op_id, "start": time.perf_counter(),
                  "end": None}
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, op_id: int) -> dict[str, float]:
        """Seconds per span name inside one op: each span's duration
        minus the part its child spans cover, summed by name.  The
        values sum to the op's root span duration."""
        spans = [r for r in self.records if r["op"] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for r in spans:
            if r["parent"] is not None:
                child_time[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = defaultdict(float)
        for r in spans:
            out[r["name"]] += r["end"] - r["start"] - child_time[r["id"]]
        return dict(out)

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line, times in seconds from
        ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps(dict(r, start=r["start"] - origin,
                                         end=r["end"] - origin)) + "\n")


class NoSpans:
    """The untraced stand-in: records nothing."""

    @staticmethod
    def span(name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()
