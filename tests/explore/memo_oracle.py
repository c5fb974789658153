"""The parity oracles of the footprint memo.

An exploration run remembers each local transition in a
:class:`~repro.sim.models.StepMemo` keyed by its footprint.
:func:`no_memo` replaces the memo's ``store`` with one that keeps
nothing (it still counts the miss), so every step made inside the
block works its transition out afresh, and the differential suites can
compare the two result for result.  :func:`simulator_memo` does the
opposite for the simulator, which steps without a memo: inside the
block its steps go through one.  Only the tests select either: no
option or config field does.
"""

from contextlib import contextmanager
from unittest import mock

import repro.sim.system
from repro.sim.models import StepMemo, step


def _count_only(memo, key, local):
    memo.misses += 1


@contextmanager
def no_memo():
    """Steps taken inside this block never hit a memo."""
    with mock.patch.object(StepMemo, "store", _count_only):
        yield


@contextmanager
def simulator_memo():
    """Simulator steps taken inside this block go through one
    :class:`StepMemo`, which the block yields.  A memo holds for one
    (tables, network) pair, so the block must drive one simulator."""
    memo = StepMemo()

    def memo_step(state, move, tables, net, refresh=False):
        return step(state, move, tables, net, refresh, memo)

    with mock.patch.object(repro.sim.system, "step", memo_step):
        yield memo
