"""The row-at-a-time parity oracle of the static deadlock engine.

:meth:`DeadlockAnalyzer.analyze` extracts the direct dependency rows and
derives every quad placement (steps 2–3) in one set-based statement.
:class:`RowAtATimeAnalyzer` builds the same ``pdt_*`` table the way the
paper describes it: each controller row's triples looked up in V in
Python, each placement derived by substituting merged roles row by row.
Steps 4–5 (composition, the VCG) are the analyzer's own, so the two
engines differ exactly where the product's SQL could drift.

:func:`cyclic_vertices_sql` recomputes
:func:`~repro.analysis.cycles.cyclic_vertices` the way the paper's
database would: a recursive reachability query, where a vertex is on a
cycle iff it reaches itself.

Only the tests use this module: no option or argument of the package
selects it.
"""

import sqlite3
from typing import Iterable

from repro.core.deadlock import (
    _DEP_COLUMNS,
    DeadlockAnalyzer,
    DependencyRow,
    _dedup_index,
)
from repro.core.quad import Placement


def placed_role(placement, role):
    """Canonical representative of ``role`` under ``placement``.  Only
    the quad roles local/home/remote merge; other endpoint names
    (``cache``, ``dev``, ...) pass through unchanged."""
    return placement.substitution.get(role, role)


class RowAtATimeAnalyzer(DeadlockAnalyzer):
    """:class:`DeadlockAnalyzer` with steps 2–3 run row at a time."""

    def controller_dependency_rows(self, spec):
        """Exact-placement (L!=H!=R) dependency rows for one controller."""
        rows = []
        it = spec.input_triple
        for row in spec.controller.rows():
            m1, s1, d1 = row[it.msg], row[it.src], row[it.dst]
            if m1 is None or s1 is None or d1 is None:
                continue
            v1 = self.channels.lookup(m1, s1, d1)
            for ot in spec.output_triples:
                m2, s2, d2 = row[ot.msg], row[ot.src], row[ot.dst]
                if m2 is None or s2 is None or d2 is None:
                    continue
                v2 = self.channels.lookup(m2, s2, d2)
                rows.append(DependencyRow(
                    m1, s1, d1, v1, m2, s2, d2, v2,
                    controller=spec.name,
                    placement=Placement.ALL_DISTINCT.value,
                    derived="direct"))
        return rows

    @staticmethod
    def apply_placement(rows, placement):
        """A placement's dependency rows: merged node roles substituted
        in the source/destination fields, channels unchanged (the
        paper's R2 -> R2')."""
        return [DependencyRow(
                    r.in_msg, placed_role(placement, r.in_src),
                    placed_role(placement, r.in_dst), r.in_vc,
                    r.out_msg, placed_role(placement, r.out_src),
                    placed_role(placement, r.out_dst), r.out_vc,
                    controller=r.controller, placement=placement.value,
                    derived="direct")
                for r in rows]

    def _build_direct(self, table, placements):
        exact = [r for spec in self.specs
                 for r in self.controller_dependency_rows(spec)]
        self.db.create_table_from_rows(
            table, _DEP_COLUMNS,
            (vars(r) for placement in placements
             for r in self.apply_placement(exact, placement)))
        self.db.create_index(_dedup_index(table))


def analyze(db, specs, channels, **kwargs):
    """The oracle's analysis of ``channels``; ``kwargs`` as for
    :meth:`DeadlockAnalyzer.analyze`."""
    return RowAtATimeAnalyzer(db, specs, channels).analyze(**kwargs)


def analyze_system(system, assignment, **kwargs):
    """The oracle's analysis of one of ``system``'s channel assignments."""
    return analyze(system.db, system.deadlock_specs(),
                   system.channel_assignments[assignment], **kwargs)


def cyclic_vertices_sql(edges: Iterable[tuple[str, str]]) -> set[str]:
    """The vertices on a cycle, by a recursive SQL reachability query in
    a scratch SQLite database."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE edges (src TEXT, dst TEXT)")
        conn.executemany("INSERT INTO edges VALUES (?, ?)",
                         [(s, d) for s, d in edges])
        rows = conn.execute("""
            WITH RECURSIVE reach(origin, dst) AS (
                SELECT src, dst FROM edges
                UNION
                SELECT reach.origin, edges.dst
                FROM reach JOIN edges ON reach.dst = edges.src
            )
            SELECT DISTINCT origin FROM reach WHERE origin = dst
            """).fetchall()
        return {r[0] for r in rows}
    finally:
        conn.close()
