"""Shared exploration fixtures.

Explorations are deterministic, so the expensive ones are module/session
scoped and shared read-only; tests that need a private explorer (resume
rebuilds the seen-set) construct their own from the session ``system``.
"""

from __future__ import annotations

import pytest

from repro.explore import ExploreConfig, ReachabilityExplorer


@pytest.fixture(scope="session")
def explored_2n8(system):
    """A completed 2-node depth-8 exploration (explorer + result)."""
    explorer = ReachabilityExplorer(system, ExploreConfig(nodes=2, depth=8))
    return explorer, explorer.run()


@pytest.fixture(scope="session")
def explored_3n5(system):
    """A 3-node exploration: quad 0 holds two interchangeable nodes, so
    symmetry reduction is actually exercised."""
    explorer = ReachabilityExplorer(system, ExploreConfig(nodes=3, depth=5))
    return explorer, explorer.run()
