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
  this one query per controller catches every single-cell corruption.

* **completeness** — ``reference inputs EXCEPT current inputs``: every
  input combination the generated table covered must still have a row.
  The reference input projections are materialized *into* the database
  (so snapshots carry them), and a dropped transition row shows up as a
  missing combination.

Both are ordinary :class:`~repro.core.invariants.Invariant` objects and
run through the same checker as the behavioral suite.
"""

from __future__ import annotations

from ..core.invariants import Invariant
from ..core.sqlgen import quote_ident, to_sql

__all__ = ["REF_INPUT_PREFIX", "prepare_reference_tables", "structural_invariants"]

#: prefix of the per-controller reference tables holding the clean input
#: projections (created by :func:`prepare_reference_tables`).
REF_INPUT_PREFIX = "__ref_in_"


def prepare_reference_tables(system) -> list[str]:
    """Materialize each controller's input projection as a reference table.

    Called on the *clean* system before snapshotting, so every clone
    carries its own ground truth for the completeness audit.  Idempotent:
    re-running replaces the tables.  Returns the table names created."""
    names = []
    for name, table in system.tables.items():
        ref = REF_INPUT_PREFIX + name
        cols = ", ".join(quote_ident(c) for c in table.schema.input_names)
        system.db.create_table_as(
            ref, f"SELECT DISTINCT {cols} FROM {quote_ident(name)}"
        )
        names.append(ref)
    return names


def structural_invariants(system) -> list[Invariant]:
    """Conformance + completeness audits for every controller table.

    Conformance audits are always emitted; completeness audits only for
    controllers whose reference table exists (see
    :func:`prepare_reference_tables`).  Build these from a *clean* system
    (or before applying a mutation): the SQL captures the original
    constraint conjunctions, so even a relax-constraint mutant is judged
    against the specification it diverged from."""
    invs: list[Invariant] = []
    for name, cs in system.constraint_sets.items():
        schema = cs.schema
        in_cols = ", ".join(quote_ident(c) for c in schema.input_names)
        conj = to_sql(cs.conjunction())
        invs.append(Invariant(
            name=f"audit-{name}-conforms",
            description=(f"every row of {name} satisfies its generating "
                         f"constraint conjunction"),
            violation_sql=(f"SELECT {in_cols} FROM {quote_ident(name)} "
                           f"WHERE NOT ({conj})"),
        ))
        ref = REF_INPUT_PREFIX + name
        if system.db.table_exists(ref):
            invs.append(Invariant(
                name=f"audit-{name}-complete",
                description=(f"every generated input combination of {name} "
                             f"still has a row"),
                violation_sql=(f"SELECT {in_cols} FROM {quote_ident(ref)} "
                               f"EXCEPT SELECT {in_cols} "
                               f"FROM {quote_ident(name)}"),
            ))
    return invs
