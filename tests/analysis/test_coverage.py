"""Tests for simulation transition coverage."""

import pytest

from repro.analysis.coverage import (
    LEDGER_TABLE,
    CoverageRecorder,
    coverage_report,
    distinct_rows,
    ledger_rows,
    read_ledger,
    write_ledger,
)
from repro.core.database import ProtocolDatabase
from repro.sim import figure2_scenario, random_workload
from repro.sim.system import SimConfig, Simulator


class TestRecorder:
    def test_record_and_total(self):
        rec = CoverageRecorder()
        rec.record("D", 1)
        rec.record("D", 1)
        rec.record("N", 7)
        assert rec.total_hits() == 3
        assert rec.hits["D"][1] == 2

    def test_merge(self):
        a, b = CoverageRecorder(), CoverageRecorder()
        a.record("D", 1)
        b.record("D", 1)
        b.record("D", 2)
        a.merge(b)
        assert a.hits["D"] == {1: 2, 2: 1}


def _covered_sim(system, **cfg):
    config = SimConfig(n_quads=2, nodes_per_quad=2, default_capacity=2,
                       home_map={"A": 0, "B": 1}, reissue_delay=5,
                       coverage=True, **cfg)
    return Simulator(system, config=config)


class TestSimulatorCoverage:
    def test_coverage_requires_flag(self, system):
        sim = Simulator(system, config=SimConfig())
        with pytest.raises(RuntimeError, match="coverage recording is off"):
            sim.coverage_report()

    def test_single_transaction_coverage(self, system):
        sim = _covered_sim(system)
        sim.inject_op("node:0.0", "ld", "A")
        assert sim.run().status == "quiescent"
        report = sim.coverage_report()
        d = report.per_table["D"]
        # read@I, data completion, ack: at least three D rows fired.
        assert d.covered_rows >= 3
        assert d.hit_count >= 3
        assert 0 < report.overall_fraction < 1

    def test_uncovered_rows_listed(self, system):
        sim = _covered_sim(system)
        sim.inject_op("node:0.0", "ld", "A")
        sim.run()
        report = sim.coverage_report()
        m = report.per_table["M"]
        uncovered_msgs = {r["inmsg"] for r in m.uncovered}
        assert "wbmem" in uncovered_msgs  # no writeback happened

    def test_coverage_monotone_in_workload(self, system):
        fractions = []
        for n_ops in (5, 40, 160):
            w = random_workload(system, seed=2, n_ops=n_ops)
            w.simulator.config.coverage = True
            # rebuild with coverage on
            sim = _covered_sim(system)
            import random
            rng = random.Random(2)
            nodes = list(sim.node_ids)
            for _ in range(n_ops):
                sim.inject_op(rng.choice(nodes),
                              rng.choices(("ld", "st", "evict"), (5, 3, 1))[0],
                              rng.choice(("A", "B")))
            assert sim.run().status == "quiescent"
            fractions.append(sim.coverage_report().overall_fraction)
        assert fractions[0] <= fractions[1] <= fractions[2]
        assert fractions[2] > fractions[0]

    def test_render(self, system):
        sim = _covered_sim(system)
        sim.inject_op("node:0.0", "st", "A")
        sim.run()
        text = sim.coverage_report().render()
        assert "transition coverage" in text and "uncovered:" in text

    def test_report_from_recorder_directly(self, system):
        rec = CoverageRecorder()
        rec.record("D", 1)
        report = coverage_report(rec, {"D": system.tables["D"]})
        assert report.per_table["D"].covered_rows == 1
        assert (report.per_table["D"].total_rows
                == system.tables["D"].row_count)

    def test_full_table_coverage_fraction_one(self, system):
        rec = CoverageRecorder()
        t = system.tables["PE"]
        for rowid in range(1, t.row_count + 1):
            rec.record("PE", rowid)
        report = coverage_report(rec, {"PE": t})
        assert report.per_table["PE"].fraction == 1.0
        assert report.per_table["PE"].uncovered == []


def _recorder(*hits):
    rec = CoverageRecorder()
    for table, rowid in hits:
        rec.record(table, rowid)
    return rec


class TestCoverageLedger:
    def test_empty_db_reads_empty_recorder(self, db):
        rec = read_ledger(db)
        assert rec.hits == {} and distinct_rows(rec) == 0

    def test_roundtrip(self, db):
        rec = _recorder(("D", 1), ("D", 1), ("N", 7))
        total = write_ledger(db, rec)
        assert total == 2
        back = read_ledger(db)
        assert back.hits["D"][1] == 2 and back.hits["N"][7] == 1
        assert db.table_exists(LEDGER_TABLE)

    def test_write_merges_with_existing(self, db):
        write_ledger(db, _recorder(("D", 1)))
        total = write_ledger(db, _recorder(("D", 1), ("M", 3)))
        assert total == 2
        back = read_ledger(db)
        assert back.hits["D"][1] == 2 and back.hits["M"][3] == 1

    def test_write_without_merge_replaces(self, db):
        write_ledger(db, _recorder(("D", 1)))
        write_ledger(db, _recorder(("M", 3)), merge=False)
        assert read_ledger(db).hits == {"M": {3: 1}}

    def test_interrupted_run_ledger_byte_identical(self):
        """A run journaled in two chunks (interrupt + resume) must leave
        the exact same stored ledger as the uninterrupted run: same rows,
        same order, same TEXT values."""
        chunk_a = _recorder(("D", 2), ("D", 9), ("C", 4), ("IO", 1))
        chunk_b = _recorder(("D", 9), ("N", 5), ("C", 4))
        full = CoverageRecorder()
        full.merge(chunk_a)
        full.merge(chunk_b)
        with ProtocolDatabase() as resumed, ProtocolDatabase() as straight:
            write_ledger(resumed, chunk_a)
            write_ledger(resumed, chunk_b)
            write_ledger(straight, full)
            assert ledger_rows(resumed) == ledger_rows(straight)

    def test_ledger_rows_sorted_and_stringly(self, db):
        write_ledger(db, _recorder(("N", 10), ("D", 2), ("D", 1)))
        rows = ledger_rows(db)
        assert [(r["table_name"], r["row_id"]) for r in rows] == [
            ("D", "1"), ("D", "2"), ("N", "10")]
        assert all(isinstance(v, str) for r in rows for v in r.values())

    def test_simulated_run_feeds_ledger(self, system):
        with ProtocolDatabase() as db:
            w = figure2_scenario(system)
            from repro.sim import ensure_recorder
            rec = ensure_recorder(w.simulator)
            assert w.run().status == "quiescent"
            total = write_ledger(db, rec)
            assert total == distinct_rows(rec) > 0
