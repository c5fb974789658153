"""Crash-safe execution runtime for long-running verification work.

The paper's methodology earns its keep on *long* runs — constraint
solves measured in hours, nightly regression sweeps — and a run that
long will be interrupted.  This package is what the long-running entry
points (mutation campaigns, exploration, repair) checkpoint through:

* :mod:`~repro.runtime.journal` — a durable append-only JSONL
  checkpoint journal; an interrupted campaign resumes exactly after the
  last completed unit.
* :mod:`~repro.runtime.atomic` — temp-file + rename writes so report
  artifacts are never left truncated.
* :mod:`~repro.runtime.watch` — read-only live observation of a
  journaled run from another terminal (``repro watch``): per-stage
  progress, throughput/ETA, the partial detection matrix.

Units run inline in the calling process, one after another: a
campaign's mutants are one plain loop in
:func:`repro.faults.run_campaign`.  There is no watchdog (every stage is
bounded by its own step, depth or round limit) and no SQL retry layer:
a failing statement is a real error and surfaces at once.

Semantics, knobs, and the degradation matrix are documented in
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from .atomic import atomic_write_json, atomic_write_text
from .journal import (
    JOURNAL_SCHEMA,
    CheckpointJournal,
    JournalError,
    check_header,
    load_journal,
)
from .watch import render_snapshot, run_watch, watch_once

__all__ = [
    "atomic_write_json", "atomic_write_text",
    "JOURNAL_SCHEMA", "CheckpointJournal", "JournalError", "check_header",
    "load_journal",
    "watch_once", "render_snapshot", "run_watch",
]
