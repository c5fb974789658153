"""Protocol invariant checking (paper section 4.3).

Paper form: ``[Select cols from D where <bad-combination>] = empty`` — an
invariant holds when the query selecting its violating rows returns
nothing.  An :class:`Invariant` carries that violation condition either as
a constraint expression over one controller table's columns or as a raw
SQL query (for invariants spanning several tables).

:meth:`InvariantChecker.check_all` runs a suite as batched sweeps, a
handful of round trips: per table, one query returns bit masks of the
expression invariants each row violates; the raw-SQL invariants are the
branches of one ``UNION ALL`` query, tagged with the invariant's
identity and padded to a common width with NULLs.  Violating rows are
projected back to each invariant's own columns.  Every raw-SQL query
must nest as a subquery: one that does not is refused with a
:class:`~repro.core.database.DatabaseError` naming the invariant on the
suite's first sweep.  The paper's one-SELECT-per-invariant form is the
tests' parity oracle (``tests/core/invariant_oracle.py``).

``check_all(tables=...)`` scopes a sweep to the invariants that read one
of the named tables: an edit re-runs only what it can have broken.  An
expression invariant reads its own table; sqlite's authorizer reports
what a raw-SQL query reads while its shape is probed.  An expression
looks at one row at a time, so a scoped sweep judges it only on the rows
that differ from the table's clean copy
(:func:`~repro.core.table.write_clean_copy`), which passed it.
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
from .sqlgen import quote_ident, to_sql
from .table import changed_rows_sql, require_clean_copy

__all__ = ["Invariant", "InvariantChecker", "InvariantViolation", "tally"]

#: compound-SELECT branches per batched query, comfortably below
#: SQLite's default 500-term compound limit.
MAX_BATCH_BRANCHES = 100

#: invariants per bit mask (sqlite integers are signed 64-bit).
MASK_BITS = 62

#: violating rows a result lists as details; the ``invariant.violations``
#: counter counts them all.
MAX_VIOLATIONS = 50

#: what removes an authorizer: None from Python 3.11 on, before that a
#: callback that allows everything.
NO_AUTHORIZER = (None if sys.version_info >= (3, 11)
                 else lambda *_: sqlite3.SQLITE_OK)


def tally(violations: int) -> None:
    """Count one check that found ``violations`` violations."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.incr("invariant.checks")
        tracer.incr("invariant.failed" if violations else "invariant.passed")
        if violations:
            tracer.incr("invariant.violations", violations)


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

    def bound_to(self, db: ProtocolDatabase) -> "InvariantChecker":
        """The same invariants over ``db``, a database with this one's
        schema, sharing the compiled batched sweep."""
        other = copy.copy(self)
        other.db = db
        return other

    # -- batched sweeps ---------------------------------------------------------
    def _probe(self, inv: Invariant) -> tuple[list[str], frozenset[str]]:
        """``(report columns, tables read)`` of ``inv``.  The columns are
        in ``SELECT *`` order when no explicit report columns are given;
        sqlite's authorizer reports the tables a raw-SQL query reads.
        Raises :class:`DatabaseError` naming ``inv`` when its query does
        not nest as a subquery, the only form a sweep runs."""
        if inv.violation is not None:
            cols = list(inv.report_columns) or self._columns(inv.table)
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
        except DatabaseError as exc:
            raise DatabaseError(
                f"invariant {inv.name!r}: its query does not nest in a "
                f"sweep: {exc}") from exc
        finally:
            self.db.connection.set_authorizer(NO_AUTHORIZER)
        return [d[0] for d in cursor.description], frozenset(reads)

    def _probes(self) -> list[tuple[list[str], frozenset[str]]]:
        """:meth:`_probe` of every invariant, run once and shared."""
        if "probes" not in self._compiled:
            self._compiled["probes"] = [self._probe(inv) for inv in self.invariants]
        return self._compiled["probes"]

    def _columns(self, table: str) -> list[str]:
        """``table``'s columns, read once and shared."""
        if ("columns", table) not in self._compiled:
            self._compiled["columns", table] = self.db.table_columns(table)
        return self._compiled["columns", table]

    @staticmethod
    def _batch_sql(chunk: Sequence[tuple[int, Invariant, list[str]]],
                   width: int) -> str:
        """One UNION ALL query over the raw-SQL invariants of ``chunk``:
        each branch is tagged with the invariant's index, then its
        columns padded with NULLs to ``width``."""
        branches = []
        for idx, inv, cols in chunk:
            values = [str(idx), *map(quote_ident, cols)]
            values += ["NULL"] * (width - len(cols))
            branches.append(f"SELECT {', '.join(values)} "
                            f"FROM ({inv.violation_sql}) AS \"__b{idx}__\"")
        return "\nUNION ALL\n".join(branches)

    @staticmethod
    def _masks_sql(table: str, columns: Sequence[str],
                   chunk: Sequence[tuple[int, Invariant, list[str]]],
                   fetched: Sequence[str], changed: bool) -> str:
        """The ``fetched`` columns of ``table``'s rows (or with
        ``changed``, of those that differ from its clean copy) in rowid
        order, then masks with bit ``j`` set when the row violates the
        ``j``-th invariant of ``chunk``; far cheaper to compile and fetch
        than a branch or a column per invariant."""
        bits = [f"CASE WHEN {to_sql(inv.violation)} "
                f"THEN {1 << j % MASK_BITS} ELSE 0 END"
                for j, (_, inv, _) in enumerate(chunk)]
        masks = [" | ".join(bits[at:at + MASK_BITS])
                 for at in range(0, len(bits), MASK_BITS)]
        source, order = quote_ident(table), "rowid"
        if changed:
            source, order = f"({changed_rows_sql(table, columns)})", '"__rid"'
        return (f"SELECT {', '.join([*map(quote_ident, fetched), *masks])} "
                f"FROM {source} ORDER BY {order}")

    def _plan(self, indexes: Sequence[int],
              key: Optional[frozenset[str]]) -> list[tuple]:
        """``[(indexes, sql, fetched columns or None for UNION ALL, the
        swept table or None)]`` for ``indexes``; a ``key`` judges changed
        rows only."""
        probes = self._probes()
        raw, per_table = [], {}
        for idx in indexes:
            inv, cols = self.invariants[idx], probes[idx][0]
            if inv.violation is None:
                raw.append((idx, inv, cols))
            else:
                per_table.setdefault(inv.table, []).append((idx, inv, cols))
        statements = []
        for start in range(0, len(raw), MAX_BATCH_BRANCHES):
            chunk = raw[start:start + MAX_BATCH_BRANCHES]
            width = max(len(cols) for _, _, cols in chunk)
            statements.append(([idx for idx, _, _ in chunk],
                               self._batch_sql(chunk, width), None, None))
        for table, items in per_table.items():
            columns = self._columns(table)
            wanted = {c for _, _, cols in items for c in cols}
            fetched = [c for c in columns if c in wanted]
            statements.append(([idx for idx, _, _ in items], self._masks_sql(
                table, columns, items, fetched, key is not None), fetched,
                table))
        return statements

    def _check_batched(
        self, indexes: Sequence[int], key: Optional[frozenset[str]],
    ) -> list[CheckResult]:
        """Check the invariants at ``indexes`` with batched sweeps,
        compiled once per ``key`` (the scoping tables), returning results
        in index order."""
        if ("plan", key) not in self._compiled:
            self._compiled["plan", key] = self._plan(indexes, key)
        statements = self._compiled["plan", key]
        probes = self._probes()
        # Violating rows as fetched; only details are projected to dicts.
        violations: dict[int, list[tuple]] = {idx: [] for idx in indexes}
        seconds: dict[int, float] = {}
        where: dict[int, dict[str, int]] = {}
        tracer = get_tracer()
        for chunk, sql, columns, table in statements:
            with span("invariant.check_batch", invariants=len(chunk)) as sp:
                try:
                    rows = self.db.query_tuples(sql)
                except DatabaseError:
                    if key is not None and table is not None:
                        require_clean_copy(self.db, table)
                    raise
            if tracer.enabled:
                tracer.incr("invariant.batches")
                tracer.incr("invariant.batched", len(chunk))
            at = None
            if columns is None:
                for r in rows:
                    violations[r[0]].append(r)
            else:
                if tracer.enabled and key is not None:
                    tracer.incr("invariant.delta_rows", len(rows))
                at = {c: i for i, c in enumerate(columns)}
                for r in rows:
                    for j, idx in enumerate(chunk):
                        if r[len(columns) + j // MASK_BITS] >> j % MASK_BITS & 1:
                            violations[idx].append(r)
            # Attribute the sweep's wall time evenly across its branches
            # so Report.total_seconds still sums to real time spent.
            share = sp.seconds / len(chunk)
            for idx in chunk:
                seconds[idx] = share
                where[idx] = at or {
                    c: i for i, c in enumerate(probes[idx][0], 1)}

        results: list[CheckResult] = []
        for idx in indexes:
            inv, rows = self.invariants[idx], violations[idx]
            tally(len(rows))
            results.append(CheckResult(
                name=inv.name,
                passed=not rows,
                description=inv.description,
                details=[
                    InvariantViolation(inv.name, {
                        c: r[where[idx][c]] for c in probes[idx][0]})
                    for r in rows[:MAX_VIOLATIONS]
                ],
                seconds=seconds[idx],
            ))
        return results

    def check_all(
        self, title: str = "protocol invariants",
        tables: Optional[Iterable[str]] = None,
    ) -> Report:
        """Run every invariant, or with ``tables`` only those that read
        one of those tables, in suite order.  A scoped sweep judges
        expression invariants on the rows that differ from each table's
        clean copy, and raises :class:`DatabaseError` without one."""
        key = None if tables is None else frozenset(tables)
        if key is None:
            indexes = range(len(self.invariants))
        else:
            indexes = [idx for idx, (_, reads) in enumerate(self._probes())
                       if reads & key]
        report = Report(title)
        report.extend(self._check_batched(indexes, key))
        return report
