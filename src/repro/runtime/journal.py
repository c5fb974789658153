"""The checkpoint journal: durable, append-only progress for long runs.

One JSONL record per *completed* unit of work, fsync'd before the write
returns, so a campaign killed at any instant loses at most the unit that
was in flight.  The first record is a header carrying the run's
parameters; resuming validates the header against the new invocation so
a journal from a different seed/assignment can never be silently merged
into the wrong campaign.  One rule holds for every journal kind: a key
present in either header must have the same value in both, so a
parameter stamped only when it is set (a protocol variant, an oracle
stage) keeps journals written with and without it apart.

The tail of a journal written up to the moment of a SIGKILL may end in a
partial line; :func:`scan_journal` tolerates exactly that (a final line
that is malformed or lacks its newline) and rejects corruption anywhere
else — the rule :func:`~repro.telemetry.sinks.scan_jsonl` applies to
every JSONL file in the package.  Reopening such a journal with
:meth:`CheckpointJournal.open` truncates the torn tail before
appending, so the resumed run's records start on a fresh line instead
of concatenating onto the partial one.  A run that re-records a unit
appends it again; readers keep the latest record per unit id.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional

from ..telemetry.sinks import scan_jsonl

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalError",
    "CheckpointJournal",
    "check_header",
    "load_journal",
    "scan_journal",
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
    def open(cls, path: str, header: dict[str, Any]) -> "CheckpointJournal":
        """Create ``path`` with ``header``, or append to an existing
        journal whose header matches (see :func:`check_header`;
        ``count``-style parameters the caller wants to allow to differ
        simply stay out of ``header``)."""
        existing: Optional[dict[str, Any]] = None
        if os.path.exists(path) and os.path.getsize(path) > 0:
            existing, _, durable_end = _scan_for_resume(path)
            if existing is None:
                raise JournalError(
                    f"journal {path!r} has no header record")
            check_header(path, existing, header)
            if durable_end < os.path.getsize(path):
                # A kill mid-append left a torn tail; drop it so the
                # next record starts on a fresh line instead of being
                # concatenated onto the partial one (which would lose
                # that record and corrupt the file mid-line).
                os.truncate(path, durable_end)
        fh = open(path, "a", encoding="utf-8")
        journal = cls(path, fh, dict(existing or header))
        if existing is None:
            journal._append({"type": "header", "schema": JOURNAL_SCHEMA,
                             **header})
        return journal

    def _append(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record(self, unit_id: Any, data: Any) -> None:
        """Durably append one completed unit's result."""
        self._append({"type": "unit", "id": unit_id, "data": data,
                      "ts": time.time()})

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_header(path: str, found: dict[str, Any],
                 expected: dict[str, Any]) -> None:
    """Raise :class:`JournalError` unless every key present in either
    header has the same value in both."""
    for key in sorted(set(found) | set(expected)):
        if found.get(key) != expected.get(key):
            raise JournalError(
                f"journal {path!r} was written by a different run: "
                f"{key}={found.get(key)!r} there, "
                f"{expected.get(key)!r} here")


def scan_journal(
    path: str,
) -> tuple[Optional[dict[str, Any]], dict[Any, dict[str, Any]], int]:
    """Parse a journal: ``(header, latest, durable_end)``.

    ``header`` is the header record without its ``type``/``schema``
    bookkeeping keys (``None`` when there is none); ``latest`` maps each
    unit id, in order of first appearance, to its *latest* raw unit
    record (``id``/``data``/``ts``); ``durable_end`` is the byte offset
    just past the last durable record.  The durability rule is
    :func:`~repro.telemetry.sinks.scan_jsonl`'s: a torn final line is
    dropped (a resume re-runs that unit), corruption anywhere before it
    raises :class:`JournalError`.  A missing file raises ``OSError``."""
    try:
        records, durable_end = scan_jsonl(path)
    except ValueError as exc:
        raise JournalError(f"journal {exc}") from exc
    header: Optional[dict[str, Any]] = None
    latest: dict[Any, dict[str, Any]] = {}
    for record in records:
        kind = record.get("type")
        if kind == "header":
            if record.get("schema") != JOURNAL_SCHEMA:
                raise JournalError(
                    f"journal {path!r} has schema "
                    f"{record.get('schema')!r}, expected {JOURNAL_SCHEMA!r}")
            header = {k: v for k, v in record.items()
                      if k not in ("type", "schema")}
        elif kind == "unit":
            latest[record.get("id")] = record
    return header, latest, durable_end


def _scan_for_resume(
    path: str,
) -> tuple[Optional[dict[str, Any]], dict[Any, dict[str, Any]], int]:
    """:func:`scan_journal` for a run about to resume, where a journal
    that cannot be read is a :class:`JournalError` like any other."""
    try:
        return scan_journal(path)
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}") from exc


def load_journal(path: str) -> tuple[dict[str, Any], dict[Any, Any]]:
    """Read a journal back: ``(header, {unit_id: data})``.

    A torn final line (the record being written when the process was
    killed — malformed, or valid JSON missing its newline) is discarded;
    malformed lines anywhere else mean real corruption and raise
    :class:`JournalError`.  Duplicate unit ids keep the latest record.
    A run about to resume from the journal checks the header against
    its own with :func:`check_header`."""
    header, latest, _ = _scan_for_resume(path)
    if header is None:
        raise JournalError(f"journal {path!r} has no header record")
    return header, {unit_id: record.get("data")
                    for unit_id, record in latest.items()}
