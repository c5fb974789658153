"""Structural audits: the table-level checks that make mutations visible.

The behavioral invariant suite (``protocols/family/invariants``) encodes
protocol *properties*; a single corrupted cell or a dropped row can slip
between them.  The paper's stronger observation is that a generated table
is exactly the solution set of its column constraints (section 3), so a
row obeys them exactly when it is a row of the generated table.
:func:`prepare_reference_tables` writes each controller's clean copy
``__clean_<T>`` *into* the database, so snapshots carry it, and two
raw-SQL invariants follow as set differences against it:

* **conformance** — ``T EXCEPT __clean_T`` over every column: a flipped
  next-state cell, swapped output message, corrupted presence vector or
  relaxed constraint leaves the solution set.
* **completeness** — ``clean inputs EXCEPT current inputs``: a dropped
  transition row shows up as a missing input combination.

A hand-edited database need not be a solution set, so
:func:`nonconforming_tables` checks the copies against the conjunctions.
"""

from __future__ import annotations

from ..core.expr import Not
from ..core.invariants import Invariant
from ..core.sqlgen import quote_ident, to_sql
from ..core.table import CLEAN_PREFIX, write_clean_copy

__all__ = ["nonconforming_tables", "prepare_reference_tables",
           "structural_invariants"]


def prepare_reference_tables(system) -> list[str]:
    """Write each controller table's clean copy (``__clean_<T>``).

    Called on the *clean* system before snapshotting, so every clone
    carries its own ground truth for the audits and table-scoped checks.
    Idempotent.  Returns the table names created."""
    return [write_clean_copy(system.db, name) for name in system.tables]


def structural_invariants(system) -> list[Invariant]:
    """Conformance + completeness audits for every controller table whose
    clean copy exists (see :func:`prepare_reference_tables`)."""
    invs: list[Invariant] = []
    for name, cs in system.constraint_sets.items():
        clean = CLEAN_PREFIX + name
        if not system.db.table_exists(clean):
            continue
        t, c = quote_ident(name), quote_ident(clean)
        cols = ", ".join(map(quote_ident, cs.schema.column_names))
        inputs = ", ".join(map(quote_ident, cs.schema.input_names))
        invs.append(Invariant(
            name=f"audit-{name}-conforms",
            description=(f"every row of {name} is a row of the generated "
                         f"table (satisfies its constraint conjunction)"),
            violation_sql=(f"SELECT {inputs} FROM (SELECT {cols} FROM {t} "
                           f"EXCEPT SELECT {cols} FROM {c})"),
        ))
        invs.append(Invariant(
            name=f"audit-{name}-complete",
            description=(f"every generated input combination of {name} "
                         f"still has a row"),
            violation_sql=(f"SELECT DISTINCT {inputs} FROM {c} "
                           f"EXCEPT SELECT {inputs} FROM {t}"),
        ))
    return invs


def nonconforming_tables(system) -> list[str]:
    """The controllers whose clean copy holds a row that breaks the
    table's constraint conjunction: one statement per table."""
    return [name for name, cs in system.constraint_sets.items()
            if system.db.query_tuples(
                f"SELECT 1 FROM {quote_ident(CLEAN_PREFIX + name)} "
                f"WHERE {to_sql(Not(cs.conjunction()))} LIMIT 1")]
