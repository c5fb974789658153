"""Controller tables stored in the database.

A :class:`ControllerTable` binds a :class:`~repro.core.schema.TableSchema`
to a concrete database table and provides the operations the rest of the
system needs: row access, NULL-wildcard lookup (a stored NULL in an input
column is a dontcare and matches any concrete value), determinism checks,
projection, and summary statistics.

A table's *clean copy* (:func:`write_clean_copy`) keeps each row's
rowid and values, so a check that passed on it and looks at one row at a
time needs to judge only the rows that differ (:func:`changed_rows_sql`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .database import ProtocolDatabase
from .expr import Row, Value
from .schema import Role, SchemaError, TableSchema
from .sqlgen import quote_ident

__all__ = ["CLEAN_PREFIX", "ControllerTable", "LookupError_",
           "AmbiguousMatchError", "NoMatchError", "changed_rows_sql",
           "write_clean_copy"]

#: prefix of a table's clean copy: ``__rid`` (each row's rowid, indexed),
#: then every column of the table.
CLEAN_PREFIX = "__clean_"


def write_clean_copy(db: ProtocolDatabase, table: str) -> str:
    """(Re)write ``table``'s clean copy; returns the copy's name."""
    copy = CLEAN_PREFIX + table
    db.create_table_as(copy, f'SELECT rowid AS "__rid", * FROM {quote_ident(table)}')
    db.create_index(copy, ("__rid",))
    return copy


def changed_rows_sql(table: str, columns: Sequence[str]) -> str:
    """``__rid`` and every column of the rows of ``table`` that differ
    from its clean copy by rowid or in one of ``columns`` (all of the
    table's); the query fails when there is no copy."""
    t, c = quote_ident(table), quote_ident(CLEAN_PREFIX + table)
    same = " AND ".join(f"c.{q} IS t.{q}" for q in map(quote_ident, columns))
    return (f'SELECT t.rowid AS "__rid", t.* FROM {t} AS t '
            f'LEFT JOIN {c} AS c ON c."__rid" = t.rowid '
            f'WHERE c."__rid" IS NULL OR NOT ({same})')


class LookupError_(RuntimeError):
    """Base class for table-lookup failures."""


class NoMatchError(LookupError_):
    """No row of the controller table matches the presented inputs."""


class AmbiguousMatchError(LookupError_):
    """More than one row matches the presented inputs — the controller is
    non-deterministic for this input combination."""


@dataclass
class TableStats:
    name: str
    n_columns: int
    n_inputs: int
    n_outputs: int
    n_rows: int
    values_per_column: dict[str, int]


class ControllerTable:
    """A generated (or hand-loaded) controller table living in the DB."""

    def __init__(self, db: ProtocolDatabase, schema: TableSchema, table_name: str) -> None:
        self.db = db
        self.schema = schema
        self.table_name = table_name
        columns = db.table_columns(table_name)  # none: no such table
        if not columns:
            raise SchemaError(f"database has no table {table_name!r}")
        missing = set(schema.column_names) - set(columns)
        if missing:
            raise SchemaError(
                f"table {table_name!r} lacks schema columns {sorted(missing)}"
            )

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        db: ProtocolDatabase,
        schema: TableSchema,
        rows: Iterable[Row],
        table_name: Optional[str] = None,
        validate: bool = True,
    ) -> "ControllerTable":
        rows = list(rows)
        if validate:
            for r in rows:
                schema.validate_row(r)
        name = table_name or schema.name
        db.create_table_from_rows(name, schema.column_names, rows)
        return cls(db, schema, name)

    # -- row access --------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self.db.row_count(self.table_name)

    def rows(self, order_by: Optional[Sequence[str]] = None) -> list[dict[str, Value]]:
        out = []
        sql = f"SELECT * FROM {quote_ident(self.table_name)}"
        if order_by:
            sql += " ORDER BY " + ", ".join(quote_ident(c) for c in order_by)
        for r in self.db.query(sql):
            out.append({c: r[c] for c in self.schema.column_names})
        return out

    def rows_with_ids(self) -> list[tuple[int, dict[str, Value]]]:
        """All rows paired with their sqlite rowids, in storage order.

        The compiled kernel backend (:mod:`repro.core.kernel`) snapshots a
        table through this so its matches report the same rowids as the
        SQL lookups do.
        """
        sql = (f"SELECT rowid AS __rowid__, * "
               f"FROM {quote_ident(self.table_name)} ORDER BY rowid")
        return [
            (r["__rowid__"], {c: r[c] for c in self.schema.column_names})
            for r in self.db.query(sql)
        ]

    def distinct(self, column: str) -> list[Value]:
        self.schema.column(column)
        return self.db.distinct_values(self.table_name, column)

    # -- lookup --------------------------------------------------------------------
    def _match(
        self, inputs: Mapping[str, Value]
    ) -> list[tuple[int, dict[str, Value]]]:
        conds: list[str] = []
        params: list[Value] = []
        input_names = set(self.schema.input_names)
        for name, value in inputs.items():
            if name not in input_names:
                raise SchemaError(
                    f"{name!r} is not an input column of {self.schema.name!r}"
                )
            q = quote_ident(name)
            conds.append(f"({q} IS NULL OR {q} IS ?)")
            params.append(value)
        sql = (f"SELECT rowid AS __rowid__, * "
               f"FROM {quote_ident(self.table_name)}")
        if conds:
            sql += " WHERE " + " AND ".join(conds)
        return [
            (r["__rowid__"], {c: r[c] for c in self.schema.column_names})
            for r in self.db.query(sql, params)
        ]

    def match_rows(self, inputs: Mapping[str, Value]) -> list[dict[str, Value]]:
        """All rows whose input columns match ``inputs``.

        A stored NULL input is a dontcare and matches anything; input
        columns absent from ``inputs`` are unconstrained.  Only input
        columns may be supplied.
        """
        return [row for _, row in self._match(inputs)]

    def lookup_id(self, **inputs: Value) -> tuple[int, dict[str, Value]]:
        """Like :meth:`lookup` but also returns the matched rowid —
        coverage analysis records which table rows a simulation fired."""
        missing = set(self.schema.input_names) - set(inputs)
        if missing:
            raise SchemaError(f"lookup missing input columns {sorted(missing)}")
        matches = self._match(inputs)
        if not matches:
            raise NoMatchError(
                f"{self.schema.name}: no row matches inputs {dict(inputs)!r}"
            )
        if len(matches) > 1:
            raise AmbiguousMatchError(
                f"{self.schema.name}: {len(matches)} rows match inputs "
                f"{dict(inputs)!r}"
            )
        return matches[0]

    def lookup(self, **inputs: Value) -> dict[str, Value]:
        """The unique transition for a concrete input combination.

        Every input column must be supplied.  Raises :class:`NoMatchError`
        or :class:`AmbiguousMatchError` — the latter indicates a protocol
        specification bug that the determinism check also reports.
        """
        return self.lookup_id(**inputs)[1]

    def try_lookup(self, **inputs: Value) -> Optional[dict[str, Value]]:
        try:
            return self.lookup(**inputs)
        except NoMatchError:
            return None

    # -- static checks ---------------------------------------------------------------
    def overlapping_pairs(
        self, limit: Optional[int] = None, changed: bool = False,
    ) -> tuple[int, list[tuple[dict[str, Value], dict[str, Value]]]]:
        """``(number of overlapping row pairs, the first ``limit`` >= 1 of
        them in rowid order)``, from one statement that joins rowids and
        fetches the columns of the pairs returned.  Two rows overlap when
        for every input column their stored values are equal or at least
        one is a dontcare NULL: some concrete input matches both rows.
        With ``changed``, only pairs holding a row that differs from the
        clean copy count: all of them when the copy has no overlaps."""
        input_names = self.schema.input_names
        if not input_names:
            return 0, []
        t = quote_ident(self.table_name)
        names = self.schema.column_names
        a, ra, rb, on = f"{t} AS a", "a.rowid", "b.rowid", "a.rowid < b.rowid"
        with_ = ""
        if changed:
            # From the changed rows; each pair once: from its lesser
            # changed row, or from its only changed row.
            with_ = ('WITH "__changed" AS MATERIALIZED '
                     f"({changed_rows_sql(self.table_name, names)}) ")
            a, rid = '"__changed" AS a', 'a."__rid"'
            ra, rb = f"min({rid}, b.rowid)", f"max({rid}, b.rowid)"
            on = (f'{rid} <> b.rowid AND ({rid} < b.rowid OR b.rowid '
                  f'NOT IN (SELECT "__rid" FROM "__changed"))')
        # Columns declared non-nullable join on plain equality, which lets
        # sqlite build an automatic index.  A NULL edited into one of them
        # switches to the all-dontcare branch instead; one branch runs.
        strict = [c for c in input_names if not self.schema.column(c).nullable]
        edited = " OR ".join(f"{quote_ident(c)} IS NULL" for c in strict) or "0"
        branches = []
        for fast in (True, False):
            conds = " AND ".join(
                f"a.{q} = b.{q}" if fast and c in strict
                else f"(a.{q} IS b.{q} OR a.{q} IS NULL OR b.{q} IS NULL)"
                for c, q in zip(input_names, map(quote_ident, input_names)))
            guard = "NOT EXISTS" if fast else "EXISTS"
            branches.append(
                f'SELECT {ra} AS "ra", {rb} AS "rb" FROM {a} '
                f"JOIN {t} AS b ON {on} AND {conds} "
                f"WHERE {guard} (SELECT 1 FROM {t} WHERE {edited})")
        cols = ", ".join(f"{side}.{quote_ident(c)}"
                         for side in "ab" for c in names)
        hits = self.db.query_tuples(
            f"{with_}SELECT p.*, {cols} FROM (SELECT count(*) OVER (), * "
            f"FROM ({' UNION ALL '.join(branches)}) ORDER BY 2, 3 LIMIT "
            f"{-1 if limit is None else limit}) AS p JOIN {t} AS a "
            f'ON a.rowid = p."ra" JOIN {t} AS b ON b.rowid = p."rb" '
            f"ORDER BY 2, 3")
        # After the count and the rowids: row a's columns, then row b's.
        n = len(names)
        return (hits[0][0] if hits else 0,
                [(dict(zip(names, hit[3:3 + n])), dict(zip(names, hit[3 + n:])))
                 for hit in hits])

    def is_deterministic(self) -> bool:
        return not self.overlapping_pairs(limit=1)[0]

    # -- derivation ---------------------------------------------------------------------
    def project(self, name: str, columns: Sequence[str], distinct: bool = True) -> "ControllerTable":
        """A new table keeping only the named columns."""
        sub = self.schema.projected(name, columns)
        cols = ", ".join(quote_ident(c) for c in columns)
        kw = "DISTINCT " if distinct else ""
        self.db.create_table_as(
            name, f"SELECT {kw}{cols} FROM {quote_ident(self.table_name)}"
        )
        return ControllerTable(self.db, sub, name)

    # -- statistics -----------------------------------------------------------------------
    def stats(self) -> TableStats:
        return TableStats(
            name=self.schema.name,
            n_columns=len(self.schema),
            n_inputs=len(self.schema.inputs),
            n_outputs=len(self.schema.outputs),
            n_rows=self.row_count,
            values_per_column={
                c.name: c.domain_size for c in self.schema.columns
            },
        )

    def __repr__(self) -> str:
        return (
            f"ControllerTable({self.schema.name!r}, rows={self.row_count}, "
            f"cols={len(self.schema)})"
        )
