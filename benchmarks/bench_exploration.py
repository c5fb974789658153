"""Bounded reachability exploration — the ground-truth oracle's cost, and
experiment T7's exhaustive baseline.

The oracle column of ``BENCH_oracle.json`` is only affordable if a
bounded exploration of a small configuration stays in seconds.  The
same runs reproduce the paper's section 4.2 point: exhaustive search
grows super-linearly with the depth bound and the topology, while the
SQL analysis in ``bench_deadlock`` is a fixed-cost database job.
These benchmarks pin the explorer's throughput on the clean tables —
state growth per depth, kernel dispatch vs SQL lookups,
symmetry-reduction payoff, worker scaling — and the end-to-end price of
one oracle verdict inside the campaign loop.

Throughput lands in the run report as ``explore.rate.*_states_per_sec``
gauges; ``bench_compare`` gates them as higher-is-better rates.

Fixed pedantic rounds keep the recorded numbers comparable across
commits, matching the other benchmark modules.
"""

import time

import pytest

from repro.explore import ExploreConfig, ReachabilityExplorer, oracle_check

ROUNDS = 3


@pytest.mark.parametrize("depth", [6, 8, 10])
def test_explore_2node_by_depth(benchmark, system, depth):
    """Frontier growth: states/transitions double every couple of
    depths, so the depth bound is the cost dial."""
    def run():
        return ReachabilityExplorer(
            system, ExploreConfig(nodes=2, depth=depth)).run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.ok and result.depth == depth


@pytest.mark.parametrize("kernel", ["interpreted", "compiled"])
def test_explore_kernel_throughput(benchmark, system, module_telemetry,
                                   kernel):
    """Dispatch-codegen kernels vs SQL lookups on the same frontier —
    the per-transition price of each execution backend."""
    times = []

    def run():
        t0 = time.perf_counter()
        explorer = ReachabilityExplorer(
            system, ExploreConfig(nodes=2, depth=10, kernel=kernel))
        result = explorer.run()
        times.append(time.perf_counter() - t0)
        explorer.close()
        return result

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.ok and result.depth == 10
    module_telemetry.gauge(f"explore.rate.{kernel}_states_per_sec",
                           round(result.states / min(times)))


def test_explore_3node_symmetric(benchmark, system):
    def run():
        return ReachabilityExplorer(
            system, ExploreConfig(nodes=3, depth=5)).run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.ok


def test_explore_3node_full_space(benchmark, system):
    """The same bound without symmetry reduction — the difference is
    what canonicalization buys."""
    def run():
        return ReachabilityExplorer(
            system, ExploreConfig(nodes=3, depth=5, symmetry=False)).run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.ok


@pytest.mark.parametrize("workers", [1, 4])
def test_explore_worker_scaling(benchmark, system, workers):
    def run():
        return ReachabilityExplorer(
            system, ExploreConfig(nodes=2, depth=9,
                                  workers=workers)).run()

    result = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert result.ok


def test_oracle_verdict_clean(benchmark, system):
    """One campaign-stage oracle call at the default ``--oracle-depth``:
    the marginal cost of ground truth per escaped mutant."""
    def run():
        return oracle_check(system, depth=8)

    verdict = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert verdict.clean


def test_oracle_verdict_catches_v4(benchmark, system):
    def run():
        return oracle_check(system, assignment="v4", depth=8)

    verdict = benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
    assert verdict.caught and verdict.kind == "deadlock"
