"""The explorer's SQL-lookup parity oracle.

The explorer compiles the controller tables into dispatch kernels when
its first transition fires.  :func:`sql_lookups` swaps that compiler
for one that hands :func:`~repro.sim.models.step` the SQL-backed tables
themselves, so the same BFS runs on one SQL query per lookup and the
differential suites can compare the two result for result.  Only the
tests select it: no option or config field does.
"""

from contextlib import contextmanager
from unittest import mock


@contextmanager
def sql_lookups():
    """Explorers built inside this block look rows up through SQL."""
    with mock.patch("repro.explore.explorer.compile_system_kernels",
                    lambda system: dict(system.tables)):
        yield
