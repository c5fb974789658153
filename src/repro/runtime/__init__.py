"""Crash-safe execution runtime for long-running verification work.

The paper's methodology earns its keep on *long* runs — constraint
solves measured in hours, nightly regression sweeps — and a run that
long will see worker hangs and outright interruptions.  This package is
the harness every long-running entry point (mutation campaigns,
invariant sweeps, deadlock analysis) runs through:

* :mod:`~repro.runtime.journal` — a durable append-only JSONL
  checkpoint journal; an interrupted campaign resumes exactly after the
  last completed unit.
* :mod:`~repro.runtime.workers` — units run inline, or one child
  process each under a watchdog that reaps hung units as ``timeout``
  outcomes; worker exceptions become ``crashed`` results instead of
  lost runs.
* :mod:`~repro.runtime.atomic` — temp-file + rename writes so report
  artifacts are never left truncated.
* :mod:`~repro.runtime.watch` — read-only live observation of a
  journaled run from another terminal (``repro watch``): per-stage
  progress, throughput/ETA, the partial detection matrix.

There is no SQL retry layer: every process owns its own sqlite
connection, so a failing statement is a real error and surfaces at once.

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
from .workers import UnitResult, run_units

__all__ = [
    "atomic_write_json", "atomic_write_text",
    "JOURNAL_SCHEMA", "CheckpointJournal", "JournalError", "check_header",
    "load_journal",
    "UnitResult", "run_units",
    "watch_once", "render_snapshot", "run_watch",
]
