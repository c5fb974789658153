"""Graph algorithms over plain ``(src, dst)`` edge iterables — the only
graph code in the package (VCG deadlock cycles, the simulator's
wait-for cycle).  The strongly-connected-components helper they build
on lives in :mod:`repro.core.constraints`, which orders generation by
it, and is re-exported here.

:func:`cyclic_vertices_sql` recomputes :func:`cyclic_vertices` the way
the paper's database would: a recursive reachability query, where a
vertex is on a cycle iff it reaches itself.  It is the cross-check.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable

from ..core.constraints import strongly_connected_components

__all__ = [
    "strongly_connected_components",
    "find_cycles",
    "cyclic_vertices",
    "cyclic_vertices_sql",
]

Edge = tuple[str, str]


def find_cycles(edges: Iterable[Edge]) -> list[tuple[str, ...]]:
    """All elementary cycles, each rotated to start at its least vertex,
    sorted.  Each is enumerated once: from its least vertex, through
    larger vertices only."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    cycles: list[tuple[str, ...]] = []

    def extend(path: list) -> None:
        for w in succ.get(path[-1], ()):
            if w == path[0]:
                cycles.append(tuple(path))
            elif w > path[0] and w not in path:
                extend(path + [w])

    for start in succ:
        extend([start])
    return sorted(cycles)


def cyclic_vertices(edges: Iterable[tuple]) -> set:
    """Vertices lying on at least one cycle: the members of non-trivial
    strongly connected components plus the self-loop vertices."""
    edges = list(edges)
    out = {a for a, b in edges if a == b}
    for component in strongly_connected_components((), edges):
        if len(component) > 1:
            out.update(component)
    return out


def cyclic_vertices_sql(edges: Iterable[Edge]) -> set[str]:
    """Same as :func:`cyclic_vertices`, computed by a recursive SQL
    reachability query in a scratch SQLite database."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE edges (src TEXT, dst TEXT)")
        conn.executemany(
            "INSERT INTO edges VALUES (?, ?)", [(s, d) for s, d in edges]
        )
        rows = conn.execute(
            """
            WITH RECURSIVE reach(origin, dst) AS (
                SELECT src, dst FROM edges
                UNION
                SELECT reach.origin, edges.dst
                FROM reach JOIN edges ON reach.dst = edges.src
            )
            SELECT DISTINCT origin FROM reach WHERE origin = dst
            """
        ).fetchall()
        return {r[0] for r in rows}
    finally:
        conn.close()
