"""The simulator on compiled kernels against the simulator on SQL lookups.

A :class:`Simulator` steps the dispatch kernels the system compiles once
per table state (:meth:`FamilySystem.kernels`).  Inside
:func:`tests.explore.sql_oracle.sql_lookups` that method hands it the
SQL-backed tables instead, one query per lookup, which stay the
semantics oracle.  Every run here is made twice, once per backend, and
must agree on everything a run is judged by: status, step and message
counts, the message trace, per-node statistics, the deadlock wait
cycle, and the (table, rowid) rows fired.
"""

from __future__ import annotations

import pytest

from repro.analysis.coverage import CoverageRecorder
from repro.core.kernel import KernelTable
from repro.core.table import ControllerTable
from repro.protocols.asura import build_system
from repro.sim import (
    ensure_recorder,
    figure2_scenario,
    figure4_scenario,
    guided_workload,
    random_workload,
)
from repro.sim.system import Simulator

from ..explore.sql_oracle import sql_lookups


def _observe(workload) -> dict:
    recorder = ensure_recorder(workload.simulator)
    result = workload.run()
    return {
        "status": result.status,
        "steps": result.steps,
        "messages": result.messages,
        "trace": [str(event) for event in result.trace],
        "node_stats": result.node_stats,
        "deadlock_cycle": result.deadlock_cycle,
        "rows": {table: dict(counter)
                 for table, counter in recorder.hits.items()},
    }


def _both(system, make) -> tuple[dict, dict]:
    """``make(system)``'s run on the kernels, then on SQL lookups."""
    compiled = make(system)
    assert isinstance(compiled.simulator.tables["D"], KernelTable)
    with sql_lookups():
        sql = make(system)
    assert isinstance(sql.simulator.tables["D"], ControllerTable)
    return _observe(compiled), _observe(sql)


WORKLOADS = {
    "fig2": lambda s: figure2_scenario(s, assignment="v5d"),
    "fig4-v5": lambda s: figure4_scenario(s, assignment="v5"),
    "fig4-v5d": lambda s: figure4_scenario(s, assignment="v5d"),
    **{f"random{seed}": (lambda s, seed=seed: random_workload(
        s, assignment="v5d", seed=seed, n_ops=100)) for seed in range(10)},
    # An explicit empty ledger: the shared test database may hold
    # coverage other tests persisted.
    "guided": lambda s: guided_workload(s, assignment="v5d", seed=0,
                                        ledger=CoverageRecorder()),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_identical_on_both_backends(system, name):
    compiled, sql = _both(system, WORKLOADS[name])
    assert compiled == sql
    assert compiled["rows"], "the run recorded no table rows"


def test_figure4_deadlocks_identically(system):
    compiled, sql = _both(system, WORKLOADS["fig4-v5"])
    assert compiled["status"] == sql["status"] == "deadlock"
    assert set(compiled["deadlock_cycle"]) == {("VC2", 1), ("VC4", 1)}
    assert compiled["deadlock_cycle"] == sql["deadlock_cycle"]


def _failure(workload) -> tuple[str, str]:
    with pytest.raises(Exception) as info:
        workload.run()
    return type(info.value).__name__, str(info.value)


@pytest.mark.parametrize("statement, expected", [
    # A hole: Figure 2 walks into the missing readex@SI row.
    ("DELETE FROM \"D\" WHERE inmsg = 'readex' AND dirst = 'SI'",
     "SimProtocolError"),
    # Non-determinism: the lookup itself raises, with its own message.
    ("INSERT INTO \"D\" SELECT * FROM \"D\" "
     "WHERE inmsg = 'readex' AND dirst = 'SI'", "AmbiguousMatchError"),
], ids=["deleted-row", "duplicated-row"])
def test_mutant_fails_identically(statement, expected):
    mutated = build_system()
    try:
        mutated.db.execute(statement)
        compiled = _failure(figure2_scenario(mutated))
        with sql_lookups():
            sql = _failure(figure2_scenario(mutated))
    finally:
        mutated.db.close()
    assert compiled[0] == expected
    assert compiled == sql


def test_tables_are_not_a_simulator_argument(system):
    """The SQL-backed tables reach a simulator only through the tests'
    ``sql_lookups()``: the constructor takes no lookup mapping."""
    with pytest.raises(TypeError, match="tables"):
        Simulator(system, tables=dict(system.tables))
