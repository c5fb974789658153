"""The system's compiled kernels are compiled once per table state.

:meth:`FamilySystem.kernels` hands every simulator and explorer the same
dispatch kernels until the tables change.  Each way a table changes must
reach the next simulator and explorer: a row edited or deleted (the
change count), a table dropped and re-created (the schema version), a
table rebound in ``system.tables`` (identity).  A clone compiles its own.
"""

from __future__ import annotations

import pytest

from repro.core.database import ProtocolDatabase
from repro.core.table import ControllerTable
from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.sim.system import Simulator

READEX_SI = "inmsg = 'readex' AND dirst = 'SI'"


def _consumers_d(system):
    """The ``D`` kernel the next simulator and the next explorer step."""
    explorer = ReachabilityExplorer(system, ExploreConfig(nodes=2, depth=1))
    return Simulator(system).tables["D"], explorer.kernels["D"]


def _d_rows(kernel) -> list:
    """Every row a kernel holds, in rowid order: the match of a probe
    that constrains no input column."""
    return [row for _, row in kernel._match({})]


def test_unchanged_tables_compile_once(fresh_system):
    first = fresh_system.kernels()
    sim_d, explore_d = _consumers_d(fresh_system)
    assert fresh_system.kernels() is first
    assert sim_d is explore_d is first["D"]


def test_memo_survives_reads(fresh_system):
    first = fresh_system.kernels()
    fresh_system.check_invariants()
    fresh_system.tables["D"].rows()
    assert fresh_system.kernels() is first


@pytest.mark.parametrize("statement", [
    f'UPDATE "D" SET cmpl = \'edited\' WHERE {READEX_SI}',
    f'DELETE FROM "D" WHERE {READEX_SI}',
], ids=["update", "delete"])
def test_row_edit_reaches_next_consumers(fresh_system, statement):
    stale = fresh_system.kernels()["D"]
    fresh_system.db.execute(statement)
    expected = fresh_system.tables["D"].rows()
    assert _d_rows(stale) != expected
    for kernel in _consumers_d(fresh_system):
        assert _d_rows(kernel) == expected


def test_regenerated_table_reaches_next_consumers(fresh_system):
    """A relax-constraint mutant drops ``D`` and re-creates it under the
    same name: the bound ``ControllerTable`` object does not change."""
    bound = fresh_system.tables["D"]
    stale = fresh_system.kernels()["D"]
    fresh_system.db.create_table_as(
        "__d_copy", f'SELECT * FROM "D" WHERE NOT ({READEX_SI})')
    fresh_system.kernels()  # compiled after the copy exists
    fresh_system.db.create_table_as("D", 'SELECT * FROM "__d_copy"')
    assert fresh_system.tables["D"] is bound
    assert bound.row_count < len(_d_rows(stale))
    for kernel in _consumers_d(fresh_system):
        assert _d_rows(kernel) == bound.rows()


def test_rebound_table_reaches_next_consumers(fresh_system):
    """No row or schema changes after the last compile: only the
    rebinding of ``system.tables["D"]`` tells the memo."""
    fresh_system.db.create_table_as(
        "__d_copy", f'SELECT * FROM "D" WHERE NOT ({READEX_SI})')
    stale = fresh_system.kernels()["D"]
    rebound = fresh_system.tables["D"] = ControllerTable(
        fresh_system.db, fresh_system.tables["D"].schema, "__d_copy")
    assert rebound.row_count < len(_d_rows(stale))
    for kernel in _consumers_d(fresh_system):
        assert _d_rows(kernel) == rebound.rows()


def test_clones_do_not_share_kernels(fresh_system):
    original = fresh_system.kernels()
    clone = fresh_system.attach(
        ProtocolDatabase.deserialize(fresh_system.db.snapshot()))
    try:
        assert clone.kernels() is not original
        assert clone.kernels()["D"] is not original["D"]
        clone.db.execute(f'DELETE FROM "D" WHERE {READEX_SI}')
        assert (len(_d_rows(clone.kernels()["D"]))
                == clone.tables["D"].row_count
                < len(_d_rows(original["D"])))
        assert fresh_system.kernels() is original
    finally:
        clone.db.close()
