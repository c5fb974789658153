"""Thin relational-database layer over the standard-library ``sqlite3``.

The paper stores all controller tables in "a central database" (ORACLE8 in
the original deployment).  Everything the methodology needs from the
database — column domains, cross products, ``WHERE`` filtering, joins,
``EXCEPT``, recursive queries — is available in SQLite, so this module is
the only place that touches ``sqlite3`` directly.

All protocol values are stored as TEXT; the paper's NULL dontcare/noop is
SQL NULL.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..telemetry import get_tracer
from .expr import Row, Value
from .sqlgen import quote_ident

__all__ = [
    "ProtocolDatabase",
    "DatabaseError",
    "IndexSpec",
    "SNAPSHOT_SUPPORTED",
    "PORTABLE_SNAPSHOT_MAGIC",
]

#: True when the running Python exposes ``sqlite3.Connection.serialize`` /
#: ``deserialize`` (3.11+); :meth:`ProtocolDatabase.snapshot` falls back
#: to the portable SQL-dump format without it.
SNAPSHOT_SUPPORTED = hasattr(sqlite3.Connection, "serialize")

#: Prefix tagging the portable snapshot format: a full SQL dump of the
#: database (schema *including indexes and views* plus every row) that
#: :meth:`ProtocolDatabase.deserialize` can restore on any Python.  Raw
#: ``sqlite3.serialize`` images instead start with the sqlite file magic
#: ``b"SQLite format 3\\x00"``, so the two formats are self-describing.
PORTABLE_SNAPSHOT_MAGIC = b"repro-snapshot:sqldump:1\n"


class DatabaseError(RuntimeError):
    """A SQL statement failed; the message names the sqlite3 error class
    and includes the offending statement."""


@dataclass(frozen=True)
class IndexSpec:
    """A declarative index request: ``columns`` of ``table``, optionally
    named (a stable name is derived otherwise)."""

    table: str
    columns: tuple[str, ...]
    name: Optional[str] = None

    @property
    def index_name(self) -> str:
        """The index's database name (derived from table + columns when
        not given explicitly)."""
        return self.name or f"idx_{self.table}__{'_'.join(self.columns)}"

    def sql(self) -> str:
        """The ``CREATE INDEX IF NOT EXISTS`` statement for this spec."""
        cols = ", ".join(quote_ident(c) for c in self.columns)
        return (
            f"CREATE INDEX IF NOT EXISTS {quote_ident(self.index_name)} "
            f"ON {quote_ident(self.table)} ({cols})"
        )


#: statement prefixes whose plans ``EXPLAIN QUERY PLAN`` can prepare even
#: after the original ran (a second CREATE would fail on "already exists").
_PLANNABLE = ("SELECT", "WITH", "INSERT", "UPDATE", "DELETE")


def _explain_target(sql: str) -> Optional[str]:
    """The statement (or embedded SELECT) to run EXPLAIN QUERY PLAN on,
    or None when the statement kind cannot be re-prepared safely."""
    flat = sql.lstrip()
    upper = flat.upper()
    if upper.startswith(_PLANNABLE):
        return flat
    if upper.startswith("CREATE TABLE"):
        # CREATE TABLE … AS SELECT …: plan the SELECT part.
        idx = upper.find(" AS SELECT")
        if idx >= 0:
            return flat[idx + len(" AS "):]
    return None


def _dict_factory(cursor: sqlite3.Cursor, row: tuple) -> dict[str, Value]:
    return {d[0]: row[i] for i, d in enumerate(cursor.description)}


class ProtocolDatabase:
    """A central database holding the controller tables.

    Each instance owns one private ``sqlite3`` connection: campaign
    children work on in-memory clones, and a ``--db``/``--save-db`` file
    is opened by one process at a time, so there is no concurrent writer
    to wait out.  A failing statement raises :class:`DatabaseError` on
    its first occurrence."""

    def __init__(self, path: str = ":memory:") -> None:
        # A generous prepared-statement cache: the pipelines re-issue the
        # same parameterized probes (row counts, lookups) thousands of
        # times per run.
        self._conn = sqlite3.connect(path, cached_statements=256)
        self._conn.row_factory = _dict_factory
        if ":memory:" in path or "mode=memory" in path:
            # The workloads are bulk inserts + analytical reads; classic
            # journaling adds nothing for an in-memory scratch database.
            self._conn.execute("PRAGMA synchronous = OFF")
        self._closed = False

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Commit any open implicit transaction and close the connection
        (without the commit, a file-backed database would roll back
        everything written since the last snapshot on close).

        Idempotent: a second close is a no-op.  A *failed* final commit
        is not swallowed — for a file-backed database it means writes
        made since the last commit (e.g. the ``__explore_summary`` table
        a ``--save-db`` run just recorded) would silently vanish, so it
        surfaces as :class:`DatabaseError`.  The connection is still
        closed in that case; resources never leak."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            raise DatabaseError(
                f"final commit failed on close; writes since the last "
                f"commit are lost: {exc}") from exc
        finally:
            self._conn.close()

    def __enter__(self) -> "ProtocolDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        return self._conn

    def change_stamp(self) -> tuple[int, int]:
        """``(schema_version, total_changes)`` of this connection: it
        differs after any schema change (a table dropped or re-created)
        and after any row written, so a cache of table contents can tell
        it is stale.  Read off the connection, it issues no traced
        statement."""
        version = self._conn.execute("PRAGMA schema_version").fetchone()
        return version["schema_version"], self._conn.total_changes

    def snapshot(self, portable: bool = False) -> bytes:
        """The whole database serialized to bytes, cheap to hand to
        campaign mutants that :meth:`deserialize` into private copies.

        Uses ``sqlite3.Connection.serialize`` when available (Python
        3.11+, :data:`SNAPSHOT_SUPPORTED`).  Without it — or when
        ``portable`` is True — falls back to a tagged SQL-dump format
        (:data:`PORTABLE_SNAPSHOT_MAGIC`).  Both formats round-trip the
        complete schema: tables, views, and crucially the indexes created
        via :class:`IndexSpec`, which the analysis engines rely on after a
        clone."""
        if self._closed:
            raise DatabaseError("database is closed; cannot snapshot")
        self._conn.commit()
        if SNAPSHOT_SUPPORTED and not portable:
            return self._conn.serialize()
        # iterdump()'s generator unpacks sqlite_master rows positionally,
        # which the dict row factory would break — swap it out while the
        # dump is materialized.
        prev = self._conn.row_factory
        self._conn.row_factory = None
        try:
            script = "\n".join(self._conn.iterdump())
        finally:
            self._conn.row_factory = prev
        return PORTABLE_SNAPSHOT_MAGIC + script.encode("utf-8")

    @classmethod
    def deserialize(cls, data: bytes) -> "ProtocolDatabase":
        """A new in-memory database restored from :meth:`snapshot` bytes.

        Accepts both snapshot formats (raw ``sqlite3.serialize`` image and
        the portable SQL dump) and restores rows *and* the full schema —
        including :class:`IndexSpec` indexes, so a restored clone keeps the
        query plans the analysis engines were tuned for.  Raw images
        require Python 3.11+; the portable format restores anywhere."""
        db = cls()
        if data.startswith(PORTABLE_SNAPSHOT_MAGIC):
            script = data[len(PORTABLE_SNAPSHOT_MAGIC):].decode("utf-8")
            db._conn.executescript(script)
            db._conn.commit()
        elif SNAPSHOT_SUPPORTED:
            db._conn.deserialize(data)
            # deserialize() swaps out the whole main database and with it
            # the per-database synchronous setting from __init__.
            db._conn.execute("PRAGMA synchronous = OFF")
        else:
            raise DatabaseError(
                "cannot restore a raw sqlite3 snapshot on this Python "
                "(serialize()/deserialize() need 3.11+); create the "
                "snapshot with snapshot(portable=True) instead"
            )
        return db

    # -- raw access -----------------------------------------------------------
    def _explain(self, sql: str, params: Sequence) -> Optional[list]:
        """Capture EXPLAIN QUERY PLAN rows for a slow statement; goes
        straight to the connection so the plan query itself is untraced."""
        target = _explain_target(sql)
        if target is None:
            return None
        try:
            cur = self._conn.execute(f"EXPLAIN QUERY PLAN {target}", params)
            return [r.get("detail") for r in cur.fetchall()]
        except sqlite3.Error:
            return None

    def _run(self, sql: str, call: Callable[[], sqlite3.Cursor],
             params: Optional[Sequence] = None) -> sqlite3.Cursor:
        """Run ``call()``, the one connection call behind ``sql``: a
        sqlite error becomes :class:`DatabaseError`, and the statement is
        recorded when tracing is on.  ``params`` is None for
        ``executemany``, whose plan is not captured."""
        if self._closed:
            raise DatabaseError(
                f"database is closed; cannot execute:\n{sql}")
        tracer = get_tracer()
        n_params = len(params) if params is not None else 0
        t0 = time.perf_counter()
        try:
            cursor = call()
        except sqlite3.Error as e:
            if tracer.enabled:
                tracer.record_sql(
                    sql, n_params=n_params, seconds=time.perf_counter() - t0,
                    status="error", error=type(e).__name__,
                )
            raise DatabaseError(
                f"{type(e).__name__}: {e}\nSQL was:\n{sql}"
            ) from e
        if tracer.enabled:
            dt = time.perf_counter() - t0
            plan = (self._explain(sql, params)
                    if params is not None and tracer.wants_plan(dt) else None)
            changed = cursor.rowcount if cursor.rowcount >= 0 else None
            tracer.record_sql(sql, n_params=n_params, seconds=dt, plan=plan,
                              changed=changed)
        return cursor

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        return self._run(sql, lambda: self._conn.execute(sql, params), params)

    def executemany(self, sql: str, rows: Iterable[Sequence]) -> int:
        """Run ``sql`` once per row of ``rows`` (any iterable, consumed
        once) and return the number of rows it changed."""
        cursor = self._run(sql, lambda: self._conn.executemany(sql, rows))
        return max(cursor.rowcount, 0)

    def query(self, sql: str, params: Sequence = ()) -> list[dict[str, Value]]:
        rows = self.execute(sql, params).fetchall()
        if rows:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.record_sql_rows(sql, len(rows))
        return rows

    def query_tuples(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Like :meth:`query` but rows come back as plain tuples — for
        bulk reads where per-row dict construction would dominate."""
        cursor = self.execute(sql, params)
        cursor.row_factory = None
        rows = cursor.fetchall()
        if rows:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.record_sql_rows(sql, len(rows))
        return rows

    def scalar(self, sql: str, params: Sequence = ()) -> Any:
        row = self.execute(sql, params).fetchone()
        if row is None:
            return None
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record_sql_rows(sql, 1)
        return next(iter(row.values()))

    # -- table management -------------------------------------------------------
    def table_exists(self, name: str) -> bool:
        return self.scalar(
            "SELECT COUNT(*) FROM sqlite_master WHERE type IN ('table','view') AND name = ?",
            (name,),
        ) > 0

    def drop_table(self, name: str) -> None:
        self.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")
        self.execute(f"DROP VIEW IF EXISTS {quote_ident(name)}")

    def row_count(self, name: str) -> int:
        return int(self.scalar(f"SELECT COUNT(*) FROM {quote_ident(name)}"))

    def table_columns(self, name: str) -> list[str]:
        return [
            r["name"]
            for r in self.query(f"PRAGMA table_info({quote_ident(name)})")
        ]

    # -- indexes and planner statistics ------------------------------------------
    def create_index(
        self,
        spec_or_table: "IndexSpec | str",
        columns: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> str:
        """Create an index (``IF NOT EXISTS``) from an :class:`IndexSpec`
        or from ``(table, columns)``; returns the index name."""
        if isinstance(spec_or_table, IndexSpec):
            spec = spec_or_table
        else:
            if not columns:
                raise ValueError("create_index needs columns when given a table name")
            spec = IndexSpec(spec_or_table, tuple(columns), name=name)
        self.execute(spec.sql())
        get_tracer().incr("db.indexes_created")
        return spec.index_name

    def rows(self, name: str, order_by: Optional[Sequence[str]] = None) -> list[dict[str, Value]]:
        sql = f"SELECT * FROM {quote_ident(name)}"
        if order_by:
            sql += " ORDER BY " + ", ".join(quote_ident(c) for c in order_by)
        return self.query(sql)

    # -- data tables ---------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[str]) -> None:
        self.drop_table(name)
        cols = ", ".join(f"{quote_ident(c)} TEXT" for c in columns)
        self.execute(f"CREATE TABLE {quote_ident(name)} ({cols})")

    def insert_rows(self, name: str, columns: Sequence[str], rows: Iterable[Row]) -> int:
        cols = ", ".join(quote_ident(c) for c in columns)
        marks = ", ".join("?" for _ in columns)
        sql = f"INSERT INTO {quote_ident(name)} ({cols}) VALUES ({marks})"
        # sqlite3 pulls the rows one at a time, so a generator of any
        # size streams in without being materialized.
        return self.executemany(
            sql, (tuple(r[c] for c in columns) for r in rows))

    def create_table_from_rows(
        self, name: str, columns: Sequence[str], rows: Iterable[Row]
    ) -> int:
        self.create_table(name, columns)
        return self.insert_rows(name, columns, rows)

    def create_table_as(self, name: str, select_sql: str) -> None:
        """The workhorse: ``CREATE TABLE name AS SELECT …`` (paper section 5
        uses exactly this form to carve implementation tables out of ED),
        replacing any table or view of that name."""
        self.drop_table(name)
        self.execute(f"CREATE TABLE {quote_ident(name)} AS {select_sql}")

    def distinct_values(self, table: str, column: str) -> list[Value]:
        return [
            r[column]
            for r in self.query(
                f"SELECT DISTINCT {quote_ident(column)} AS {quote_ident(column)} "
                f"FROM {quote_ident(table)}"
            )
        ]
