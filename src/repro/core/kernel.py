"""Compiled transition kernels.

A :class:`KernelTable` is a drop-in replacement for the lookup surface of
:class:`~repro.core.table.ControllerTable` that answers probes from a
generated integer-indexed dispatch function (see
:func:`~repro.core.codegen.generate_dispatch_source`) instead of issuing
one SQL query per transition.  Semantics are bit-identical: stored NULL
inputs are wildcards, a ``None`` (or out-of-domain) probe value matches
only wildcard rows, rowids and row dicts match what the SQL path returns,
and the error classes *and message strings* are the same — the explorer
pins hole-violation details on those strings, so a kernel must raise
exactly what the SQL-backed table (the tests' parity oracle) raises.

:func:`compile_system_kernels` compiles the tables a step executes
(:func:`repro.sim.models.step` looks rows up through either kind of
table).  A system compiles them once per table state
(:meth:`~repro.protocols.family.system.FamilySystem.kernels`) and every
simulator and explorer over it steps the same kernels.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .codegen import compile_dispatch
from .schema import SchemaError, TableSchema
from .table import AmbiguousMatchError, ControllerTable, NoMatchError

__all__ = [
    "KernelTable",
    "SIMULATED_TABLES",
    "compile_system_kernels",
]

# The tables a step executes (directory, memory, cache, network, IO).
SIMULATED_TABLES = ("D", "M", "C", "N", "IO")


class KernelTable:
    """Dispatch-compiled lookup over a snapshot of a controller table."""

    def __init__(
        self,
        schema: TableSchema,
        rows: Sequence[tuple[int, dict]],
        table_name: Optional[str] = None,
    ) -> None:
        self.schema = schema
        self.table_name = table_name or schema.name
        self._rows = tuple((int(rid), dict(row)) for rid, row in rows)
        self._input_names = schema.input_names
        self._input_set = frozenset(self._input_names)
        self._partial_cache: dict = {}
        self._dispatch = compile_dispatch(schema, self._rows, "_dispatch")

    @classmethod
    def from_table(cls, table: ControllerTable) -> "KernelTable":
        return cls(table.schema, table.rows_with_ids(), table.table_name)

    # -- row access ------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self._rows)

    def rows(self) -> list[dict]:
        return [dict(row) for _, row in self._rows]

    def rows_with_ids(self) -> list[tuple[int, dict]]:
        return [(rid, dict(row)) for rid, row in self._rows]

    # -- lookup ----------------------------------------------------------------
    def _match(self, inputs: Mapping[str, object]) -> list[tuple[int, dict]]:
        """Partial NULL-wildcard match, memoized per input combination.

        Matches ``ControllerTable._match``: unconstrained input columns
        may be omitted, unknown names raise, results come in rowid order.
        Partial probes are rare (one call site) and drawn from a small
        set of combinations, so a linear scan behind a cache is enough.
        """
        for name in inputs:
            if name not in self._input_set:
                raise SchemaError(
                    f"{name!r} is not an input column of {self.schema.name!r}"
                )
        key = tuple(sorted(inputs.items(), key=lambda kv: kv[0]))
        cached = self._partial_cache.get(key)
        if cached is None:
            cached = [
                (rid, row)
                for rid, row in self._rows
                if all(
                    row[c] is None or row[c] == v for c, v in inputs.items()
                )
            ]
            self._partial_cache[key] = cached
        return cached

    def match_rows(self, inputs: Mapping[str, object]) -> list[dict]:
        return [row for _, row in self._match(inputs)]

    def lookup_id(self, **inputs) -> tuple[int, dict]:
        # One set comparison on the hot path; the error is worked out
        # only when the names differ.
        if inputs.keys() != self._input_set:
            missing = self._input_set - set(inputs)
            if missing:
                raise SchemaError(
                    f"lookup missing input columns {sorted(missing)}")
            unknown = next(n for n in inputs if n not in self._input_set)
            raise SchemaError(
                f"{unknown!r} is not an input column of {self.schema.name!r}"
            )
        hits = self._dispatch(*(inputs[c] for c in self._input_names))
        if not hits:
            raise NoMatchError(
                f"{self.schema.name}: no row matches inputs {dict(inputs)!r}"
            )
        if len(hits) > 1:
            raise AmbiguousMatchError(
                f"{self.schema.name}: {len(hits)} rows match inputs "
                f"{dict(inputs)!r}"
            )
        return self._rows[hits[0]]

    def lookup(self, **inputs) -> dict:
        return self.lookup_id(**inputs)[1]

    def try_lookup(self, **inputs) -> Optional[dict]:
        try:
            return self.lookup(**inputs)
        except NoMatchError:
            return None

    def __repr__(self) -> str:
        return (
            f"KernelTable({self.schema.name!r}, rows={self.row_count}, "
            f"cols={len(self.schema)})"
        )


def compile_system_kernels(system) -> dict[str, KernelTable]:
    """Compile the simulated tables of a protocol system into kernels."""
    return {
        name: KernelTable.from_table(system.tables[name])
        for name in SIMULATED_TABLES
        if name in system.tables
    }

