"""Quad placement relations (paper section 4.1).

ASURA nodes play three roles in a transaction: ``local`` (the requester),
``home`` (the memory/directory owner), and ``remote`` (potential sharers).
Virtual channels are physical-link resources shared by every node in a
quad, so whether two assignments denote the *same* channel instance
depends on how the three roles are placed onto quads.  The paper considers
the five possible equality relations between L, H and R:

    L=H=R, L=H!=R, L!=H=R, L=R!=H, L!=H!=R

A placement acts on dependency rows by substituting each merged role with
a canonical representative, exactly as the paper rewrites R2 into R2' for
the L!=H=R placement in section 4.2.
"""

from __future__ import annotations

import enum
from typing import Mapping

__all__ = ["NodeRole", "Placement", "ALL_PLACEMENTS"]


class NodeRole(str, enum.Enum):
    """The three transaction roles a node can play (section 2.1)."""

    LOCAL = "local"
    HOME = "home"
    REMOTE = "remote"

    def __str__(self) -> str:  # store bare strings in the database
        return self.value


_L, _H, _R = NodeRole.LOCAL.value, NodeRole.HOME.value, NodeRole.REMOTE.value


class Placement(enum.Enum):
    """One of the five quad placement relations between L, H and R."""

    ALL_SAME = "L=H=R"
    LOCAL_HOME = "L=H!=R"
    HOME_REMOTE = "L!=H=R"
    LOCAL_REMOTE = "L=R!=H"
    ALL_DISTINCT = "L!=H!=R"

    @property
    def substitution(self) -> Mapping[str, str]:
        """Role -> canonical representative under this placement.

        Merged roles map to a single representative so two assignments
        that share a physical channel under the placement become equal
        after substitution.  ``home`` is kept as representative whenever it
        participates in a merge (matching the paper's rewriting of
        ``remote`` to ``home`` under L!=H=R).
        """
        if self is Placement.ALL_SAME:
            return {_L: _H, _H: _H, _R: _H}
        if self is Placement.LOCAL_HOME:
            return {_L: _H, _H: _H, _R: _R}
        if self is Placement.HOME_REMOTE:
            return {_L: _L, _H: _H, _R: _H}
        if self is Placement.LOCAL_REMOTE:
            return {_L: _L, _H: _H, _R: _L}
        return {_L: _L, _H: _H, _R: _R}

    def merges(self) -> frozenset[frozenset[str]]:
        """The nontrivial equivalence classes this placement induces."""
        classes: dict[str, set[str]] = {}
        for role, rep in self.substitution.items():
            classes.setdefault(rep, set()).add(role)
        return frozenset(frozenset(c) for c in classes.values() if len(c) > 1)


ALL_PLACEMENTS: tuple[Placement, ...] = tuple(Placement)
