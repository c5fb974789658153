"""Extension benchmark — transition coverage of simulation campaigns.

The development cycle the paper criticizes ends with "running specific as
well as random tests"; the natural question is how much of the
specification such campaigns actually exercise.  With the specification
in database tables, coverage is a query.  The sweep shows the classic
verification shape: coverage grows quickly with workload size, then
saturates far below 100% — the directed scenarios and invariants cover
what random traffic cannot reach.
"""

import random

import pytest

from repro.sim.system import SimConfig, Simulator


def _run_covered(system, n_ops: int, seed: int = 3):
    sim = Simulator(system, config=SimConfig(
        n_quads=2, nodes_per_quad=2, default_capacity=2,
        home_map={f"L{i}": i % 2 for i in range(4)},
        reissue_delay=6, coverage=True,
    ))
    rng = random.Random(seed)
    nodes = list(sim.node_ids)
    for _ in range(n_ops):
        if rng.random() < 0.15:
            sim.inject_io(rng.randrange(2),
                          rng.choice(("io_read", "io_write")),
                          f"L{rng.randrange(4)}")
        else:
            sim.inject_op(rng.choice(nodes),
                          rng.choices(("ld", "st", "evict"), (5, 3, 1))[0],
                          f"L{rng.randrange(4)}")
    result = sim.run()
    assert result.status == "quiescent"
    return sim.coverage_report()


@pytest.mark.parametrize("n_ops", [20, 80, 320])
def test_coverage_growth_with_workload(benchmark, system, n_ops):
    report = benchmark.pedantic(
        lambda: _run_covered(system, n_ops), iterations=1, rounds=3,
    )
    assert 0 < report.overall_fraction < 1


def test_coverage_saturates_below_full(benchmark, system):
    """Even a long random campaign leaves specification rows untouched
    (deep retry interleavings, busy-state corners) — the reason static
    checking of the *tables* beats simulating around them."""
    report = benchmark.pedantic(
        lambda: _run_covered(system, 600), iterations=1, rounds=1,
    )
    d = report.per_table["D"]
    assert 0.15 < d.fraction < 0.95
    assert d.uncovered  # concrete rows no random test reached


def test_coverage_query_cost(benchmark, system):
    """Building the report is itself a cheap SQL job."""
    sim = Simulator(system, config=SimConfig(
        n_quads=2, nodes_per_quad=2, default_capacity=2,
        home_map={"A": 0, "B": 1}, coverage=True,
    ))
    sim.inject_op("node:0.0", "st", "A")
    sim.inject_op("node:1.0", "ld", "A")
    sim.run()

    report = benchmark(sim.coverage_report)
    assert report.per_table["D"].hit_count > 0
