"""The checkpoint journal: durable, append-only progress for long runs.

One JSONL record per *completed* unit of work, fsync'd before the write
returns, so a campaign killed at any instant loses at most the unit that
was in flight.  The first record is a header carrying the run's
parameters; resuming validates the header against the new invocation so
a journal from a different seed/assignment can never be silently merged
into the wrong campaign.

The tail of a journal written up to the moment of a SIGKILL may end in a
partial line; :func:`load_journal` tolerates exactly that (a malformed
*final* line) and rejects corruption anywhere else.  Reopening such a
journal with :meth:`CheckpointJournal.open` truncates the torn tail
before appending, so the resumed run's records start on a fresh line
instead of concatenating onto the partial one.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional

from .atomic import atomic_write_text

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalError",
    "CheckpointJournal",
    "load_journal",
]

#: schema tag stamped into every journal header record.
JOURNAL_SCHEMA = "repro.runtime.journal/v1"


class JournalError(RuntimeError):
    """A journal could not be read, or its header does not match the
    run attempting to resume from it."""


class CheckpointJournal:
    """An append-only JSONL progress journal.

    Use :meth:`open` — it creates the file with a header record, or
    validates the header of an existing journal and appends to it.  Each
    :meth:`record` call flushes and fsyncs, making the record durable
    before the caller moves on to the next unit.
    """

    def __init__(self, path: str, fh, header: dict[str, Any]) -> None:
        self.path = path
        self._fh = fh
        self.header = header

    @classmethod
    def open(cls, path: str, header: dict[str, Any],
             fsync: bool = True) -> "CheckpointJournal":
        """Create ``path`` with ``header``, or append to an existing
        journal after checking every header key matches (``count``-style
        keys the caller wants to allow to differ simply stay out of
        ``header``)."""
        existing: Optional[dict[str, Any]] = None
        if os.path.exists(path) and os.path.getsize(path) > 0:
            existing, _, durable_end = _scan_journal(path)
            if existing is None:
                raise JournalError(
                    f"journal {path!r} has no header record")
            for key, value in header.items():
                if existing.get(key) != value:
                    raise JournalError(
                        f"journal {path!r} was written by a different run: "
                        f"{key}={existing.get(key)!r} there, {value!r} here")
            if durable_end < os.path.getsize(path):
                # A kill mid-append left a torn tail; drop it so the
                # next record starts on a fresh line instead of being
                # concatenated onto the partial one (which would lose
                # that record and corrupt the file mid-line).
                os.truncate(path, durable_end)
        fh = open(path, "a", encoding="utf-8")
        journal = cls(path, fh, dict(existing or header))
        journal._fsync = fsync
        if existing is None:
            journal._append({"type": "header", "schema": JOURNAL_SCHEMA,
                             **header})
        return journal

    _fsync = True

    def _append(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def record(self, unit_id: Any, data: Any) -> None:
        """Durably append one completed unit's result."""
        self._append({"type": "unit", "id": unit_id, "data": data,
                      "ts": time.time()})

    def compact(self) -> int:
        """Atomically rewrite the journal keeping only live records.

        A journal that re-records units (a campaign or exploration run
        again on the same ``--journal`` without ``--resume`` appends
        every unit a second time) keeps every superseded record;
        compaction rewrites it down to the header plus the *latest*
        record per unit id — exactly what :func:`load_journal` would
        have surfaced anyway — and reopens the append handle on the new
        file.  It is the one way to shrink a journal without a window in
        which a kill could lose it, so it stays even though no run
        compacts on its own.  The rewrite is a fully-written, fsync'd
        sibling temp file swapped in with ``os.replace``, so a crash at
        any instant leaves either the old complete journal or the new
        complete journal on disk, never a prefix and never a lost
        record.  Returns the number of superseded records dropped."""
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())
        raw_header, latest, order, total_records = _scan_live_records(
            self.path)
        if raw_header is None:
            raise JournalError(
                f"cannot compact journal {self.path!r}: no header record")
        lines = [json.dumps(raw_header, sort_keys=True, default=str)]
        lines.extend(json.dumps(latest[unit_id], sort_keys=True, default=str)
                     for unit_id in order)
        # Close before the swap: the old handle points at the old inode,
        # and an append there after the replace would be silently lost.
        self._fh.close()
        self._fh = None
        try:
            atomic_write_text(self.path, "\n".join(lines) + "\n")
        finally:
            # Reopen even if the swap failed: either file is a complete,
            # consistent journal, and the caller's handle must keep
            # working (crash-during-compaction is survivable, a dead
            # handle afterwards is not).
            self._fh = open(self.path, "a", encoding="utf-8")
        return total_records - len(order)

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _scan_raw(
    path: str,
) -> tuple[Optional[dict[str, Any]], dict[Any, dict[str, Any]],
           list[Any], int, int]:
    """Parse a journal, returning ``(header_record, latest, order,
    total_units, durable_end)``.

    ``header_record`` is the raw header line (``type``/``schema`` keys
    included); ``latest`` maps each unit id to its *latest* raw record;
    ``order`` lists unit ids by first appearance; ``total_units`` counts
    every durable unit record including superseded duplicates.
    ``durable_end`` is the byte offset just past the last durable record
    — well-formed JSON terminated by a newline.  A final line that is
    malformed *or* missing its newline is the tear a kill mid-append
    leaves behind: its record never became durable, so it is excluded
    everywhere (a resume re-runs that unit).  Malformed lines anywhere
    before the tail mean real corruption and raise
    :class:`JournalError`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
    header_record: Optional[dict[str, Any]] = None
    latest: dict[Any, dict[str, Any]] = {}
    order: list[Any] = []
    total_units = 0
    durable_end = 0
    offset = 0
    lineno = 0
    total = len(raw)
    while offset < total:
        newline = raw.find(b"\n", offset)
        terminated = newline != -1
        end = newline + 1 if terminated else total
        chunk = raw[offset:newline if terminated else total]
        lineno += 1
        if not chunk.strip():
            if terminated:
                durable_end = end
            offset = end
            continue
        try:
            record = json.loads(chunk.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if end >= total:
                break  # torn tail write from a kill mid-append
            raise JournalError(
                f"journal {path!r} is corrupt at line {lineno}: "
                f"{exc}") from exc
        if not terminated:
            break  # complete JSON whose newline never hit the disk
        kind = record.get("type")
        if kind == "header":
            if record.get("schema") != JOURNAL_SCHEMA:
                raise JournalError(
                    f"journal {path!r} has schema "
                    f"{record.get('schema')!r}, expected {JOURNAL_SCHEMA!r}")
            header_record = record
        elif kind == "unit":
            unit_id = record.get("id")
            if unit_id not in latest:
                order.append(unit_id)
            latest[unit_id] = record
            total_units += 1
        durable_end = end
        offset = end
    return header_record, latest, order, total_units, durable_end


def _scan_journal(
    path: str,
) -> tuple[Optional[dict[str, Any]], dict[Any, Any], int]:
    """Parse a journal, returning ``(header, units, durable_end)`` —
    the :func:`_scan_raw` view with the header's bookkeeping keys
    stripped and each unit reduced to its latest ``data``."""
    header_record, latest, order, _, durable_end = _scan_raw(path)
    header = None
    if header_record is not None:
        header = {k: v for k, v in header_record.items()
                  if k not in ("type", "schema")}
    units = {unit_id: latest[unit_id].get("data") for unit_id in order}
    return header, units, durable_end


def _scan_live_records(
    path: str,
) -> tuple[Optional[dict[str, Any]], dict[Any, dict[str, Any]],
           list[Any], int]:
    """The compaction view: ``(raw_header_record, latest_raw_records,
    order, total_unit_records)``."""
    header_record, latest, order, total_units, _ = _scan_raw(path)
    return header_record, latest, order, total_units


def load_journal(path: str) -> tuple[dict[str, Any], dict[Any, Any]]:
    """Read a journal back: ``(header, {unit_id: data})``.

    A torn final line (the record being written when the process was
    killed — malformed, or valid JSON missing its newline) is discarded;
    malformed lines anywhere else mean real corruption and raise
    :class:`JournalError`.  Duplicate unit ids keep the latest record."""
    header, units, _ = _scan_journal(path)
    if header is None:
        raise JournalError(f"journal {path!r} has no header record")
    return header, units
