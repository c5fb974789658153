"""Experiments F2 / F4 (dynamic) — the table-driven simulator.

F2: the Figure 2 read-exclusive transaction executes to completion.
F4: the Figure 4 schedule deadlocks under v5 and completes under v5d.
Plus throughput: messages processed per second of the table-driven
execution.  Every transition is a row of the generated tables, looked
up in the dispatch kernels the system compiles from them once per table
state (the artifact that was verified is the artifact that runs), so
the module's SQL statements are the five ``SELECT``s of that one
compile, whatever the number of rounds.

Fixed pedantic rounds keep the recorded numbers comparable across
commits, matching the other benchmark modules.
"""

import pytest

from repro.sim import figure2_scenario, figure4_scenario, random_workload

ROUNDS = 10


def test_figure2_transaction(benchmark, system):
    def run():
        return figure2_scenario(system).run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.status == "quiescent"
    msgs = [t.msg for t in result.trace]
    assert msgs[0] == "readex" and "sinv" in msgs and "mread" in msgs


def test_figure4_deadlock_detection_v5(benchmark, system):
    def run():
        return figure4_scenario(system, "v5").run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.status == "deadlock"
    assert set(result.deadlock_cycle) == {("VC2", 1), ("VC4", 1)}


def test_figure4_resolution_v5d(benchmark, system):
    def run():
        return figure4_scenario(system, "v5d").run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.status == "quiescent"


@pytest.mark.parametrize("n_ops", [50, 150])
def test_random_workload_throughput(benchmark, system, n_ops):
    def run():
        w = random_workload(system, seed=11, n_ops=n_ops, n_lines=6,
                            capacity=2)
        return w.run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.status == "quiescent"
    assert result.messages > n_ops  # every miss costs several messages


def test_big_topology_soak(benchmark, system):
    def run():
        w = random_workload(system, seed=5, n_ops=200, n_quads=4,
                            nodes_per_quad=3, n_lines=8, capacity=2)
        return w.run()

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.status == "quiescent"
