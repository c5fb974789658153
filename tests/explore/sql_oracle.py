"""The SQL-lookup parity oracle of the explorer and the simulator.

Both take their row lookups from one place: the dispatch kernels
:meth:`FamilySystem.kernels` compiles once per table state.
:func:`sql_lookups` replaces that method, memo included, with one that
hands :func:`~repro.sim.models.step` the SQL-backed tables themselves,
so the same BFS or simulation runs on one SQL query per lookup and the
differential suites can compare the two result for result.  Only the
tests select it: no option or config field does.
"""

from contextlib import contextmanager
from unittest import mock

from repro.protocols.family.system import FamilySystem


@contextmanager
def sql_lookups():
    """Explorers run and simulators built inside this block look rows
    up through SQL."""
    with mock.patch.object(FamilySystem, "kernels",
                           lambda system: dict(system.tables)):
        yield
