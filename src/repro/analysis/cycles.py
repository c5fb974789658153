"""Graph algorithms over plain ``(src, dst)`` edge iterables — the only
graph code in the package (VCG deadlock cycles, the simulator's
wait-for cycle).  The strongly-connected-components helper they build
on lives in :mod:`repro.core.constraints`, which orders generation by
it, and is re-exported here.
"""

from __future__ import annotations

from typing import Iterable

from ..core.constraints import strongly_connected_components

__all__ = [
    "strongly_connected_components",
    "find_cycles",
    "cyclic_vertices",
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
