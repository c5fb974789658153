"""Controller tables stored in the database.

A :class:`ControllerTable` binds a :class:`~repro.core.schema.TableSchema`
to a concrete database table and provides the operations the rest of the
system needs: row access, NULL-wildcard lookup (a stored NULL in an input
column is a dontcare and matches any concrete value), determinism checks,
projection, and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .database import ProtocolDatabase
from .expr import Row, Value
from .schema import Role, SchemaError, TableSchema
from .sqlgen import quote_ident

__all__ = ["ControllerTable", "LookupError_", "AmbiguousMatchError", "NoMatchError"]


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
        if not db.table_exists(table_name):
            raise SchemaError(f"database has no table {table_name!r}")
        missing = set(schema.column_names) - set(db.table_columns(table_name))
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
        table through this so its matches report the same rowids coverage
        analysis records for the interpreted path.
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
    def find_overlapping_rows(self) -> list[tuple[dict[str, Value], dict[str, Value]]]:
        """Pairs of distinct rows whose input patterns intersect.

        Two rows overlap when for every input column their stored values
        are equal or at least one is a dontcare NULL; an overlap means some
        concrete input matches both rows.  A deterministic controller has
        no overlaps.  Pairs come in rowid order.
        """
        input_names = self.schema.input_names
        if not input_names:
            return []

        def overlap(name: str, plain: bool) -> str:
            q = quote_ident(name)
            if plain:
                return f"a.{q} = b.{q}"
            return f"(a.{q} IS b.{q} OR a.{q} IS NULL OR b.{q} IS NULL)"

        # Columns declared non-nullable join on plain equality, which lets
        # sqlite build an automatic index.  A NULL edited into one of them
        # switches to the all-dontcare branch instead; one branch runs.
        t = quote_ident(self.table_name)
        names = self.schema.column_names
        strict = [c for c in input_names if not self.schema.column(c).nullable]
        edited = " OR ".join(f"{quote_ident(c)} IS NULL" for c in strict) or "0"
        selected = "a.rowid, b.rowid, " + ", ".join(
            f"{side}.{quote_ident(c)}" for side in "ab" for c in names)
        branches = []
        for fast in (True, False):
            conds = " AND ".join(overlap(c, fast and c in strict)
                                 for c in input_names)
            guard = "NOT EXISTS" if fast else "EXISTS"
            branches.append(
                f"SELECT {selected} FROM {t} a JOIN {t} b "
                f"ON a.rowid < b.rowid AND {conds} "
                f"WHERE {guard} (SELECT 1 FROM {t} WHERE {edited})")
        hits = self.db.query_tuples(
            " UNION ALL ".join(branches) + " ORDER BY 1, 2")
        # After the rowids: row a's columns, then row b's, by position.
        n = len(names)
        return [(dict(zip(names, hit[2:2 + n])), dict(zip(names, hit[2 + n:])))
                for hit in hits]

    def is_deterministic(self) -> bool:
        return not self.find_overlapping_rows()

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
