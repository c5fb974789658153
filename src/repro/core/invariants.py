"""Protocol invariant checking (paper section 4.3).

Paper form: ``[Select cols from D where <bad-combination>] = empty`` — an
invariant holds when the query selecting its violating rows returns
nothing.  An :class:`Invariant` carries that violation condition either as
a constraint expression over one controller table's columns or as a raw
SQL query (for invariants spanning several tables).

:meth:`InvariantChecker.check_all` compiles every invariant into one
branch of a single ``UNION ALL`` query tagged with the invariant's
identity, so a whole sweep costs a handful of database round trips
instead of one per invariant.  Branches are padded to a common width with
NULLs so invariants over different tables batch together; violating rows
are projected back to each invariant's own columns afterwards.  A raw-SQL
invariant joins the batch as a subquery; one whose query does not nest
runs on its own through :meth:`InvariantChecker.check`, the paper's
literal one-SELECT form, which the parity tests also use as the sweep's
oracle: ``[checker.check(inv) for inv in checker.invariants]`` gives the
same :class:`~repro.core.report.CheckResult` contents.

``check_all(tables=...)`` scopes a sweep to the invariants that read one
of the named tables: an edit re-runs only what it can have broken.  An
expression invariant reads its own table; sqlite's authorizer reports
what a raw-SQL query reads while its shape is probed.
"""

from __future__ import annotations

import copy
import sqlite3
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..telemetry import get_tracer, span
from .database import DatabaseError, ProtocolDatabase
from .expr import BoolExpr
from .report import CheckResult, Report
from .sqlgen import quote_ident, quote_value, to_sql

__all__ = ["Invariant", "InvariantChecker", "InvariantViolation"]

#: compound-SELECT branches per batched query, comfortably below
#: SQLite's default 500-term compound limit.
MAX_BATCH_BRANCHES = 100

#: what removes an authorizer: None from Python 3.11 on, before that a
#: callback that allows everything.
NO_AUTHORIZER = (None if sys.version_info >= (3, 11)
                 else lambda *_: sqlite3.SQLITE_OK)


@dataclass
class InvariantViolation:
    invariant: str
    row: dict

    def __str__(self) -> str:
        pretty = ", ".join(f"{k}={v}" for k, v in self.row.items())
        return f"{self.invariant}: {pretty}"


@dataclass(frozen=True)
class Invariant:
    """A protocol invariant, stated as its violation condition.

    Exactly one of ``violation`` (expression over ``table``'s columns) or
    ``violation_sql`` (full SELECT returning violating rows, possibly
    joining several tables) must be given.
    """

    name: str
    description: str
    table: Optional[str] = None
    violation: Optional[BoolExpr] = None
    violation_sql: Optional[str] = None
    report_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.violation is None) == (self.violation_sql is None):
            raise ValueError(
                f"invariant {self.name!r}: give exactly one of violation / violation_sql"
            )
        if self.violation is not None and self.table is None:
            raise ValueError(
                f"invariant {self.name!r}: expression invariants need a table"
            )

    def query(self) -> str:
        """The SELECT returning this invariant's violating rows."""
        if self.violation_sql is not None:
            return self.violation_sql
        if self.report_columns:
            cols = ", ".join(quote_ident(c) for c in self.report_columns)
        else:
            cols = "*"
        return (
            f"SELECT {cols} FROM {quote_ident(self.table)} "
            f"WHERE {to_sql(self.violation)}"
        )


class InvariantChecker:
    """Runs invariants against the central database.

    The suite is read-only (:attr:`invariants` is a tuple);
    :meth:`add` and :meth:`extend` are its only mutators, so the
    compiled sweep always matches it.
    """

    def __init__(self, db: ProtocolDatabase) -> None:
        self.db = db
        self._invariants: tuple[Invariant, ...] = ()
        # "probes" -> each invariant's report columns and tables read;
        # ("plan", tables) -> a sweep of the invariants reading one of
        # tables (None: all).  Shared via bound_to().
        self._compiled: dict = {}

    @property
    def invariants(self) -> tuple[Invariant, ...]:
        """The suite, in the order :meth:`check_all` reports it."""
        return self._invariants

    def add(self, invariant: Invariant) -> None:
        self.extend((invariant,))

    def extend(self, invariants: Sequence[Invariant]) -> None:
        # A new suite and plan: bound copies keep sharing the old ones.
        self._invariants = (*self._invariants, *invariants)
        self._compiled = {}

    def bound_to(self, db: Optional[ProtocolDatabase]) -> "InvariantChecker":
        """The same invariants over ``db``, a database with this one's
        schema (None detaches, e.g. to pickle), sharing the compiled
        batched sweep."""
        other = copy.copy(self)
        other.db = db
        return other

    def check(self, invariant: Invariant, max_violations: int = 50) -> CheckResult:
        with span("invariant.check", invariant=invariant.name) as sp:
            rows = self.db.query(invariant.query())
        self._tally(rows)
        details = [
            InvariantViolation(invariant.name, r) for r in rows[:max_violations]
        ]
        return CheckResult(
            name=invariant.name,
            passed=not rows,
            description=invariant.description,
            details=details,
            seconds=sp.seconds,
        )

    # -- batched sweeps ---------------------------------------------------------
    @staticmethod
    def _tally(rows: Sequence) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.incr("invariant.checks")
            tracer.incr("invariant.passed" if not rows else "invariant.failed")
            if rows:
                tracer.incr("invariant.violations", len(rows))

    def _probe(self, inv: Invariant) -> tuple[Optional[list[str]], Optional[frozenset[str]]]:
        """``(report columns, tables read)`` of ``inv``.  The columns
        (``SELECT *`` order when no explicit report columns are given) are
        None when the invariant cannot join a batch.  sqlite's authorizer
        reports the tables a raw-SQL query reads; they are None when the
        query does not nest, and such an invariant runs in every scoped
        sweep."""
        if inv.violation is not None:
            cols = list(inv.report_columns) or self.db.table_columns(inv.table)
            return cols, frozenset((inv.table,))
        reads: set[str] = set()

        def record(action: int, table: Optional[str], *_) -> int:
            if action == sqlite3.SQLITE_READ:
                reads.add(table)
            return sqlite3.SQLITE_OK

        self.db.connection.set_authorizer(record)
        try:
            cursor = self.db.execute(
                f'SELECT * FROM ({inv.violation_sql}) AS "__probe__" LIMIT 0'
            )
        except DatabaseError:
            return None, None  # query shape does not nest; run it standalone
        finally:
            self.db.connection.set_authorizer(NO_AUTHORIZER)
        cols = [d[0] for d in cursor.description]
        # Ambiguous duplicate output names cannot be projected back.
        return (cols if len(set(cols)) == len(cols) else None), frozenset(reads)

    def _probes(self) -> list[tuple[Optional[list[str]], Optional[frozenset[str]]]]:
        """:meth:`_probe` of every invariant, run once and shared."""
        if "probes" not in self._compiled:
            self._compiled["probes"] = [self._probe(inv) for inv in self.invariants]
        return self._compiled["probes"]

    def _batch_sql(self, chunk: Sequence[tuple[int, Invariant, list[str]]], width: int) -> str:
        """One UNION ALL query over ``chunk``; every branch is padded to
        ``width`` value columns and tagged with the invariant's index."""
        branches = []
        for idx, inv, cols in chunk:
            if inv.violation is not None:
                source = quote_ident(inv.table)
                where = f" WHERE {to_sql(inv.violation)}"
            else:
                source = f"({inv.violation_sql}) AS \"__b{idx}__\""
                where = ""
            selected = [f"{quote_value(str(idx))} AS \"__invariant__\""]
            for i in range(width):
                value = quote_ident(cols[i]) if i < len(cols) else "NULL"
                selected.append(f"{value} AS \"v{i}\"")
            branches.append(
                f"SELECT {', '.join(selected)} FROM {source}{where}"
            )
        return "\nUNION ALL\n".join(branches)

    def _plan(self, indexes: Sequence[int]) -> tuple:
        """``({index: report columns} of the batchable invariants,
        [(indexes, UNION ALL sql)] per chunk)`` for ``indexes``."""
        probes = self._probes()
        batchable = [(idx, self.invariants[idx], cols) for idx in indexes
                     if (cols := probes[idx][0]) is not None]
        chunks = []
        for start in range(0, len(batchable), MAX_BATCH_BRANCHES):
            chunk = batchable[start:start + MAX_BATCH_BRANCHES]
            width = max(len(cols) for _, _, cols in chunk)
            chunks.append(([idx for idx, _, _ in chunk],
                           self._batch_sql(chunk, width)))
        return {idx: cols for idx, _, cols in batchable}, chunks

    def _check_batched(
        self, indexes: Sequence[int], key: Optional[frozenset[str]],
        max_violations: int = 50,
    ) -> list[CheckResult]:
        """Check the invariants at ``indexes`` with batched UNION ALL
        sweeps, compiled once per ``key`` (the scoping tables), returning
        results in index order and identical in content to :meth:`check`
        (raw-SQL invariants that do not nest still run individually)."""
        if ("plan", key) not in self._compiled:
            self._compiled["plan", key] = self._plan(indexes)
        columns_of, chunks = self._compiled["plan", key]
        violations: dict[int, list[dict]] = {idx: [] for idx in columns_of}
        seconds: dict[int, float] = {}
        tracer = get_tracer()
        for chunk, sql in chunks:
            with span("invariant.check_batch", invariants=len(chunk)) as sp:
                rows = self.db.query(sql)
            if tracer.enabled:
                tracer.incr("invariant.batches")
                tracer.incr("invariant.batched", len(chunk))
            for r in rows:
                violations[int(r["__invariant__"])].append(r)
            # Attribute the sweep's wall time evenly across its branches
            # so Report.total_seconds still sums to real time spent.
            share = sp.seconds / len(chunk)
            for idx in chunk:
                seconds[idx] = share

        results: list[CheckResult] = []
        for idx in indexes:
            inv = self.invariants[idx]
            if idx not in columns_of:
                results.append(self.check(inv, max_violations))
                continue
            cols = columns_of[idx]
            rows = [
                {c: r[f"v{i}"] for i, c in enumerate(cols)}
                for r in violations[idx]
            ]
            self._tally(rows)
            results.append(CheckResult(
                name=inv.name,
                passed=not rows,
                description=inv.description,
                details=[
                    InvariantViolation(inv.name, r)
                    for r in rows[:max_violations]
                ],
                seconds=seconds[idx],
            ))
        return results

    def check_all(
        self, title: str = "protocol invariants",
        tables: Optional[Iterable[str]] = None,
    ) -> Report:
        """Run every invariant, or with ``tables`` only those that read
        one of those tables, in suite order."""
        key = None if tables is None else frozenset(tables)
        if key is None:
            indexes = range(len(self.invariants))
        else:
            indexes = [idx for idx, (_, reads) in enumerate(self._probes())
                       if reads is None or reads & key]
        report = Report(title)
        report.extend(self._check_batched(indexes, key))
        return report
