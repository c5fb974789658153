"""The footprint memo against fresh steps.

Every explorer run, simulator and pool worker keeps a
:class:`~repro.sim.models.StepMemo`: a handler's local outcome, worked
out once per footprint.  The memo must be invisible: each run here is
made twice, once as shipped and once under
:func:`tests.explore.memo_oracle.no_memo`, and must agree on the
``--out`` report, the journal, the simulator's results and the rows it
fired.  A memo lives only as long as its tables: a run after a row edit
equals a fresh clone's run.
"""

from __future__ import annotations

import json

import pytest

from repro.core.database import ProtocolDatabase
from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.sim import (
    ensure_recorder,
    figure2_scenario,
    figure4_scenario,
    random_workload,
)
from repro.telemetry import Tracer, use_tracer

from .memo_oracle import no_memo


def _explore(system, journal=None, **bound) -> tuple[dict, list, dict]:
    """The report, the journal records without timestamps, and the
    memo counters of one run."""
    tracer = Tracer()
    explorer = ReachabilityExplorer(
        system, ExploreConfig(journal_path=journal and str(journal), **bound))
    try:
        with use_tracer(tracer):
            result = explorer.run()
    finally:
        explorer.close()
    records = []
    if journal is not None:
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            record.pop("ts", None)
            records.append(record)
    counters = tracer.registry.snapshot()["counters"]
    return result.to_dict(), records, {
        k: counters[f"explore.memo.{k}"] for k in ("hits", "misses")}


BOUNDS = {
    "2n-d16": dict(nodes=2, depth=16),
    "3n-2l-d7": dict(nodes=3, lines=2, depth=7),
    "v5-2l-d13": dict(assignment="v5", lines=2, depth=13),
    "2n-d25": dict(nodes=2, depth=25),
}


class TestExplorerParity:
    @pytest.mark.parametrize("bound", BOUNDS.values(), ids=BOUNDS.keys())
    def test_report_and_journal_identical(self, system, tmp_path, bound):
        report, journal, memo = _explore(
            system, tmp_path / "memo.jsonl", **bound)
        with no_memo():
            fresh_report, fresh_journal, fresh = _explore(
                system, tmp_path / "fresh.jsonl", **bound)
        assert report == fresh_report
        assert journal == fresh_journal
        # The same steps are taken; only the memo answers most of them.
        assert fresh["hits"] == 0
        assert memo["hits"] + memo["misses"] == fresh["misses"]
        assert memo["hits"] > memo["misses"]

    def test_bounds_reach_their_violations(self, system):
        """The bounds above cover a deadlock and protocol holes, so the
        memo's recorded holes are compared too."""
        v5, _, _ = _explore(system, **BOUNDS["v5-2l-d13"])
        deep, _, _ = _explore(system, **BOUNDS["2n-d25"])
        assert {v["kind"] for v in v5["violations"]} == {"deadlock"}
        assert [v["kind"] for v in deep["violations"]] == ["hole"] * 4

    def test_pooled_run_counts_its_workers_lookups(self, system):
        inline = _explore(system, nodes=2, depth=12)
        pooled = _explore(system, nodes=2, depth=12, workers=2)
        assert pooled[0] == inline[0]
        assert (sum(pooled[2].values()) == sum(inline[2].values()))

    def test_untraced_run_emits_no_counters(self, system):
        tracer = Tracer()
        ReachabilityExplorer(system, ExploreConfig(nodes=2, depth=4)).run()
        assert "explore.memo.hits" not in \
            tracer.registry.snapshot()["counters"]


def _observe(workload) -> dict:
    recorder = ensure_recorder(workload.simulator)
    result = workload.run()
    return {
        "status": result.status,
        "steps": result.steps,
        "messages": result.messages,
        "trace": [str(event) for event in result.trace],
        "node_stats": result.node_stats,
        "deadlock_cycle": result.deadlock_cycle,
        "deadlock_report": result.deadlock_report,
        # In first-fired order per table, with counts.
        "rows": [(table, list(counter.items()))
                 for table, counter in recorder.hits.items()],
    }


WORKLOADS = {
    "fig2": lambda s: figure2_scenario(s, assignment="v5d"),
    "fig4-v5": lambda s: figure4_scenario(s, assignment="v5"),
    "fig4-v5d": lambda s: figure4_scenario(s, assignment="v5d"),
    **{f"random{seed}": (lambda s, seed=seed: random_workload(
        s, assignment="v5d", seed=seed, n_ops=100)) for seed in range(10)},
}


class TestSimulatorParity:
    @pytest.mark.parametrize("make", WORKLOADS.values(), ids=WORKLOADS.keys())
    def test_run_and_rows_identical(self, system, make):
        memoized = make(system)
        observed = _observe(memoized)
        with no_memo():
            fresh = make(system)
            assert _observe(fresh) == observed
        assert fresh.simulator._memo.hits == 0
        assert memoized.simulator._memo.hits > 0


#: the directory's answer to a read of an uncached line, re-pointed at
#: the exclusive busy state: the edit changes what a run reaches.
EDIT_D = 'UPDATE "D" SET nxtbdirst = \'Busy-x-d\' WHERE rowid = 1'


class TestTableEdits:
    def test_run_after_a_row_edit_equals_a_fresh_clone(self, fresh_system):
        bound = dict(nodes=2, depth=10)
        before = _explore(fresh_system, **bound)[0]
        sim_before = _observe(WORKLOADS["random0"](fresh_system))
        fresh_system.db.execute(EDIT_D)
        after = _explore(fresh_system, **bound)[0]
        sim_after = _observe(WORKLOADS["random0"](fresh_system))
        clone = fresh_system.attach(
            ProtocolDatabase.deserialize(fresh_system.db.snapshot()))
        try:
            assert after != before and sim_after != sim_before
            assert after == _explore(clone, **bound)[0]
            assert sim_after == _observe(WORKLOADS["random0"](clone))
        finally:
            clone.db.close()
