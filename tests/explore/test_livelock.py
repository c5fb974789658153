"""The clean MESI protocol's livelock loop, pinned.

From a state reached by depth 12 (2 nodes, 1 line, v5d), twelve moves
with no ``inject`` return to the same control state with one more
``mwrite`` on ``PDM``: node 0's fill re-queues its load, node 1's
upgrade invalidates the line before the load replays, and node 0's next
read downgrades node 1's line before its store replays, so neither
operation ever performs.  The explorer reports only quiescent
deadlocks, so no verdict sees this loop; the test keeps it in view.
"""

from __future__ import annotations

import pytest

from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.sim.models import StepMemo, step

#: the loop's moves; a delivery names only its virtual channel, whose
#: one instance in flight picks the destination quad.
LOOP = (
    ("deliver", "VC2"), ("deliver", "VC3"), ("deliver", "VC5"),
    ("cpu", "node:1.0"),
    ("deliver", "VC0"), ("deliver", "VC1"), ("deliver", "VC2"),
    ("deliver", "VC3"), ("deliver", "VC5"),
    ("cpu", "node:0.0"),
    ("deliver", "VC0"), ("deliver", "VC1"),
)

MWRITE = ("mwrite", "dir:0", "mem:0", "L0", "home", "home")


@pytest.fixture(scope="module")
def explorer(system):
    explorer = ReachabilityExplorer(
        system, ExploreConfig(nodes=2, depth=12, assignment="v5d"))
    explorer.run()
    return explorer


def _lap(explorer, state, memo):
    """``(end state, counts)`` after the loop's moves, None where one
    cannot fire."""
    counts = []
    for move in LOOP:
        if move[0] == "deliver":
            keys = [key for key, _ in state[0] if key[0] == move[1]]
            if len(keys) != 1:
                return None
            move = ("deliver",) + keys[0]
        succ, fx = step(state, move, explorer.kernels, explorer.net, False,
                        memo)
        if succ is None:
            return None
        counts.extend(fx.counts)
        state = succ
    return state, counts


def _with_mwrites(state, n):
    """``state`` with ``n`` more ``mwrite`` queued on ``PDM`` to quad 0."""
    channels = dict(state[0])
    channels[("PDM", 0)] = channels.get(("PDM", 0), ()) + (MWRITE,) * n
    return (tuple(sorted(channels.items())),) + state[1:]


@pytest.fixture(scope="module")
def witness(explorer):
    """Every reached state the loop returns to, plus one ``mwrite``,
    with the lap's counts."""
    starts = []
    for state in explorer.states.values():
        lap = _lap(explorer, state, StepMemo())
        if lap is not None and lap[0] == _with_mwrites(state, 1):
            starts.append((state, lap[1]))
    return starts


def test_loop_returns_to_its_start_with_one_more_mwrite(witness):
    assert len(witness) == 1
    (start, counts), = witness
    channels, dirs, nodes, ios = start
    (_, lines, busy), _ = dirs
    assert not lines and [b[1] for b in busy] == ["Busy-rm-s"]
    (n0, cache0, miss0, _, ops0), (n1, cache1, _, _, ops1) = nodes
    assert (n0, cache0, miss0[2], ops0) == ("node:0.0", (), "miss_rd", ())
    assert (n1, cache1, ops1) == ("node:1.0", (("L0", "S"),), (("st", "L0"),))
    # No operation performs: no hit, and each node misses once per lap.
    assert not [c for c in counts if c[1] == "hits"]
    assert sorted(c for c in counts if c[1] == "misses") == [
        ("node:0.0", "misses"), ("node:1.0", "misses")]


def test_second_lap_is_answered_by_the_memo(explorer, witness):
    """The loop revisits its footprints: once around fills the memo,
    and the next lap is all hits."""
    (start, _), = witness
    memo = StepMemo()
    once, _ = _lap(explorer, start, memo)
    misses, hits = memo.misses, memo.hits
    twice, _ = _lap(explorer, once, memo)
    assert twice == _with_mwrites(start, 2)
    assert memo.misses == misses and memo.hits == hits + len(LOOP)
