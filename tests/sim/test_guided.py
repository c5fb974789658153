"""Tests for the coverage-guided workload generator.

The headline claim (and the acceptance bar of the closed loop): at the
same op and step budget, a guided workload exercises strictly more
distinct controller-table rows than the fixed fig2+random pair, for
every seed the committed ``BENCH_repair.json`` records.
"""

import pytest

from repro.analysis.closedloop import guided_coverage_delta
from repro.analysis.coverage import CoverageRecorder, distinct_rows
from repro.sim import IO_OPS, ensure_recorder, guided_workload

BUDGET = dict(n_ops=40, max_steps=400)


class TestGuidedWorkload:
    def test_deterministic_per_seed(self, system):
        a = guided_workload(system, seed=3, n_ops=30,
                            ledger=CoverageRecorder())
        b = guided_workload(system, seed=3, n_ops=30,
                            ledger=CoverageRecorder())
        assert [(o.node, o.op, o.addr) for o in a.ops] == \
               [(o.node, o.op, o.addr) for o in b.ops]

    def test_seeds_differ(self, system):
        a = guided_workload(system, seed=0, ledger=CoverageRecorder())
        b = guided_workload(system, seed=1, ledger=CoverageRecorder())
        assert [(o.node, o.op) for o in a.ops] != \
               [(o.node, o.op) for o in b.ops]

    def test_reaches_io_rows(self, system):
        """The structural gap guided search exploits: the fixed random
        workload never issues IO ops, so IO rows stay dark without it."""
        w = guided_workload(system, seed=0, n_ops=40,
                            ledger=CoverageRecorder())
        assert any(op.op in IO_OPS for op in w.ops)
        assert w.run(max_steps=400).status == "quiescent"
        assert len(w.simulator.recorder.hits.get("IO", {})) > 0

    def test_runs_quiescent_and_records(self, system):
        w = guided_workload(system, seed=1, **{"n_ops": 25})
        assert w.run(max_steps=600).status == "quiescent"
        assert distinct_rows(w.simulator.recorder) > 0

    def test_ledger_biases_op_mix(self, system):
        """A ledger that already saturates the CPU-side tables steers
        the generator toward the uncovered IO rows."""
        saturated = CoverageRecorder()
        for name in ("C", "N", "D", "M"):
            table = system.tables[name]
            for rowid in range(1, table.row_count + 1):
                saturated.record(name, rowid)
        cold = guided_workload(system, seed=5, n_ops=40, epsilon=0.0,
                               ledger=CoverageRecorder())
        hot = guided_workload(system, seed=5, n_ops=40, epsilon=0.0,
                              ledger=saturated)
        io_share = sum(1 for o in hot.ops if o.op in IO_OPS)
        assert io_share > sum(1 for o in cold.ops if o.op in IO_OPS) / 2
        assert io_share == len(hot.ops)  # only IO rows are uncovered


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_guided_beats_fixed_coverage(system, seed):
    """Strictly more distinct rows than fig2+random at equal budget —
    the invariant the committed BENCH_repair.json gates in CI."""
    run = guided_coverage_delta(system, seed=seed, **BUDGET)
    assert run["delta"] > 0, run
    assert run["guided_rows"] > run["fixed_rows"]


class TestGuidedCli:
    def test_simulate_guided_writes_ledger(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--guided", "--ops", "20",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "coverage ledger:" in out
        assert "transition coverage" in out
