"""Controller-table schemas.

A controller (paper section 2.1) is a multi-input, multi-output state
machine stored as a table: input columns describe the incoming message and
the controller state, output columns describe the emitted messages and the
next state.  Each column has a *column table* listing its legal values plus
the special NULL value (dontcare for inputs, noop for outputs).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .expr import Row, Value

__all__ = ["Role", "Column", "TableSchema", "SchemaError"]


class SchemaError(ValueError):
    """Raised for malformed schemas or rows that violate a schema."""


class Role(enum.Enum):
    """Whether a column is an input to or an output of the controller."""

    INPUT = "input"
    OUTPUT = "output"


@dataclass(frozen=True)
class Column:
    """One column of a controller table.

    ``values`` are the legal non-NULL values (the paper's column table
    minus NULL); ``nullable`` adds NULL to the domain.  Output columns are
    almost always nullable (NULL = noop); input columns are nullable when a
    dontcare row is meaningful.
    """

    name: str
    values: tuple[str, ...]
    role: Role
    nullable: bool = True
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        seen: set[str] = set()
        for v in self.values:
            if v is None:
                raise SchemaError(
                    f"column {self.name!r}: NULL is implied by nullable=True, "
                    "do not list it in values"
                )
            if not isinstance(v, str):
                raise SchemaError(f"column {self.name!r}: values must be strings, got {v!r}")
            if v in seen:
                raise SchemaError(f"column {self.name!r}: duplicate value {v!r}")
            seen.add(v)
        if not self.values and not self.nullable:
            raise SchemaError(f"column {self.name!r} has an empty domain")

    @property
    def domain(self) -> tuple[Value, ...]:
        """Full domain including NULL when nullable."""
        if self.nullable:
            return (None,) + self.values
        return self.values

    @property
    def domain_size(self) -> int:
        return len(self.values) + (1 if self.nullable else 0)

    def admits(self, value: Value) -> bool:
        if value is None:
            return self.nullable
        return value in self.values


class TableSchema:
    """An ordered collection of input and output columns."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        names = [c.name for c in columns]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"table {name!r}: duplicate columns {sorted(dupes)}")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self._by_name: dict[str, Column] = {c.name: c for c in self.columns}

    # -- accessors ----------------------------------------------------------
    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def inputs(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role is Role.INPUT)

    @property
    def outputs(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.role is Role.OUTPUT)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.outputs)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        return (
            f"TableSchema({self.name!r}, {len(self.inputs)} inputs, "
            f"{len(self.outputs)} outputs)"
        )

    # -- domain arithmetic ----------------------------------------------------
    def cross_product_size(self, columns: Optional[Iterable[str]] = None) -> int:
        """Cardinality of the cross product of the named column tables.

        This is the row count the monolithic generator's join must
        enumerate — the quantity behind the paper's 6-hour observation.
        """
        names = tuple(columns) if columns is not None else self.column_names
        return math.prod(self.column(n).domain_size for n in names)

    # -- row validation -------------------------------------------------------
    def validate_row(self, row: Row) -> None:
        """Check a row maps every column to a value in its domain."""
        for c in self.columns:
            if c.name not in row:
                raise SchemaError(f"row missing column {c.name!r} of table {self.name!r}")
            v = row[c.name]
            if not c.admits(v):
                raise SchemaError(
                    f"table {self.name!r}, column {c.name!r}: value {v!r} "
                    f"not in domain {c.domain!r}"
                )
        extra = set(row) - set(self._by_name)
        if extra:
            raise SchemaError(f"row has columns {sorted(extra)} not in table {self.name!r}")

    # -- derivation -----------------------------------------------------------
    def extended(self, name: str, extra: Sequence[Column]) -> "TableSchema":
        """A new schema with ``extra`` columns appended (paper section 5:
        the extended table ED adds implementation columns to D)."""
        return TableSchema(name, tuple(self.columns) + tuple(extra))

    def projected(self, name: str, columns: Sequence[str]) -> "TableSchema":
        """A new schema keeping only the named columns, in the given order."""
        return TableSchema(name, tuple(self.column(c) for c in columns))
