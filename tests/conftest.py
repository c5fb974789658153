"""Shared fixtures.

Building the full ASURA system exercises the generator over eight
controller tables; it is cheap (fractions of a second) but many tests
need it, so it is session-scoped.  Tests that mutate tables must build
their own system (see ``fresh_system``).
"""

from __future__ import annotations

import pytest

from repro.core.database import ProtocolDatabase
from repro.protocols.asura import build_system


@pytest.fixture(scope="session")
def system():
    """A generated ASURA system, shared read-only across the session."""
    return build_system()


@pytest.fixture()
def fresh_system():
    """A private system instance for tests that mutate the database."""
    return build_system()


@pytest.fixture()
def db():
    with ProtocolDatabase() as database:
        yield database
