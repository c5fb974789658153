"""Experiments T3 / T4 / F4 — static deadlock detection (section 4.1-4.2).

Claims reproduced, per channel assignment:

* v4 (initial 4 channels): "several cycles leading to deadlocks were
  found", involving the home directory and memory controllers.
* v5 (VC4 added): exactly the Figure 4 deadlock — the {VC2, VC4} cycle
  plus the two composed self-loops (the paper's R3 narrative).
* v5d (dedicated mread path): no cycles.

The paper gives no explicit timing for the deadlock analysis; the
benchmark records that the full pipeline (dependency extraction over all
five quad placements, SQL pairwise composition, cycle detection) is a
sub-second database job.

Benchmarks run with ``benchmark.pedantic`` and fixed rounds so the span
and query totals in ``BENCH_deadlock.json`` are deterministic across
commits; ``deadlock.analyze`` means are the headline number
``benchmarks/bench_compare.py`` tracks (see ``docs/PERFORMANCE.md``).
"""

import pytest

#: fixed pedantic rounds — keep deterministic for BENCH_deadlock.json.
ROUNDS_ANALYZE = 15
ROUNDS_MICRO = 30


@pytest.mark.parametrize("assignment,expected_cycles", [
    ("v4", "several"),
    ("v5", "figure4"),
    ("v5d", "none"),
])
def test_deadlock_analysis(benchmark, system, assignment, expected_cycles):
    def run():
        analysis = system.analyze_deadlocks(assignment)
        return analysis, analysis.cycles()

    analysis, cycles = benchmark.pedantic(
        run, rounds=ROUNDS_ANALYZE, iterations=1, warmup_rounds=2,
    )
    if expected_cycles == "several":
        assert len(cycles) >= 2
        involved = {vc for c in cycles for vc in c}
        assert {"VC0", "VC2"} <= involved
    elif expected_cycles == "figure4":
        assert ("VC2", "VC4") in cycles
        assert ("VC2",) in cycles and ("VC4",) in cycles
    else:
        assert cycles == []


def test_cycle_detection(benchmark, system):
    """The channels on a VCG cycle, from the strongly connected
    components of the v5 VCG."""
    analysis = system.analyze_deadlocks("v5")

    def run():
        return analysis.cyclic_channels()

    cyclic = benchmark.pedantic(
        run, rounds=ROUNDS_MICRO, iterations=1, warmup_rounds=2,
    )
    assert cyclic == {"VC2", "VC4"}


def test_witness_extraction(benchmark, system):
    analysis = system.analyze_deadlocks("v5")

    def run():
        return analysis.scenario(("VC2", "VC4"))

    text = benchmark.pedantic(
        run, rounds=ROUNDS_MICRO, iterations=1, warmup_rounds=2,
    )
    assert "mread" in text and "waits on" in text
