"""The parity oracle of the footprint memo.

Explorers and simulators remember each local transition in a
:class:`~repro.sim.models.StepMemo` keyed by its footprint.
:func:`no_memo` replaces the memo's ``store`` with one that keeps
nothing (it still counts the miss), so every step made inside the
block works its transition out afresh, and the differential suites can
compare the two result for result.  Only the tests select it: no option
or config field does.
"""

from contextlib import contextmanager
from unittest import mock

from repro.sim.models import StepMemo


def _count_only(memo, key, local):
    memo.misses += 1


@contextmanager
def no_memo():
    """Steps taken inside this block never hit a memo."""
    with mock.patch.object(StepMemo, "store", _count_only):
        yield
