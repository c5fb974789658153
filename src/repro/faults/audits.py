"""Structural audits: the table-level checks that make mutations visible.

The behavioral invariant suite (``protocols/family/invariants``) encodes
protocol *properties*; a single corrupted cell or a dropped row can slip
between them.  The paper's stronger observation is that a generated table
carries its own ground truth: it is exactly the solution set of its column
constraints.  Two SQL audits follow directly:

* **conformance** — ``SELECT … FROM T WHERE NOT (conjunction)``: every
  stored row must still satisfy the constraint conjunction it was
  generated from.  Any flipped next-state cell, swapped output message, or
  corrupted presence-vector update violates some column constraint, so
  this one check per controller catches every single-cell corruption.
  It looks at one row at a time (an expression invariant), so a
  table-scoped sweep judges only the rows that differ from the clean copy.

* **completeness** — ``clean inputs EXCEPT current inputs``: every input
  combination the generated table covered must still have a row, so a
  dropped transition row shows up as a missing combination.

:func:`prepare_reference_tables` writes each controller's clean copy
*into* the database, so snapshots carry it.  Both audits are ordinary
:class:`~repro.core.invariants.Invariant` objects and run through the
same checker as the behavioral suite.
"""

from __future__ import annotations

from ..core.expr import Not
from ..core.invariants import Invariant
from ..core.sqlgen import quote_ident
from ..core.table import CLEAN_PREFIX, write_clean_copy

__all__ = ["prepare_reference_tables", "structural_invariants"]


def prepare_reference_tables(system) -> list[str]:
    """Write each controller table's clean copy (``__clean_<T>``).

    Called on the *clean* system before snapshotting, so every clone
    carries its own ground truth for the audits and table-scoped checks.
    Idempotent.  Returns the table names created."""
    return [write_clean_copy(system.db, name) for name in system.tables]


def structural_invariants(system) -> list[Invariant]:
    """Conformance + completeness audits for every controller table.

    Conformance audits are always emitted; completeness audits only for
    controllers whose clean copy exists (see
    :func:`prepare_reference_tables`).  Build these from a *clean* system
    (or before applying a mutation): the conformance expression captures
    the original constraint conjunction, so even a relax-constraint
    mutant is judged against the specification it diverged from."""
    invs: list[Invariant] = []
    for name, cs in system.constraint_sets.items():
        inputs = tuple(cs.schema.input_names)
        invs.append(Invariant(
            name=f"audit-{name}-conforms",
            description=(f"every row of {name} satisfies its generating "
                         f"constraint conjunction"),
            table=name,
            violation=Not(cs.conjunction()),
            report_columns=inputs,
        ))
        clean = CLEAN_PREFIX + name
        if system.db.table_exists(clean):
            in_cols = ", ".join(map(quote_ident, inputs))
            invs.append(Invariant(
                name=f"audit-{name}-complete",
                description=(f"every generated input combination of {name} "
                             f"still has a row"),
                violation_sql=(f"SELECT DISTINCT {in_cols} "
                               f"FROM {quote_ident(clean)} "
                               f"EXCEPT SELECT {in_cols} "
                               f"FROM {quote_ident(name)}"),
            ))
    return invs
