"""The reachability explorer: counts, parity, parallelism, journaling.

The committed state/transition counts pin the explored space of the
clean tables — any change to the controller generator, the transition
relation's commit rules, or the canonicalizer shows up here first.
"""

from __future__ import annotations

import pytest

from repro.core.database import ProtocolDatabase
from repro.explore import (
    ExplorationError,
    ExploreConfig,
    ExploreResult,
    ReachabilityExplorer,
    SUMMARY_TABLE,
    explore_system,
)
from repro.runtime import JournalError, load_journal
from repro.telemetry.tracer import Tracer, use_tracer


class TestCleanExploration:
    def test_2node_depth8_counts_are_pinned(self, explored_2n8):
        _, result = explored_2n8
        assert result.ok
        assert (result.states, result.transitions) == (195, 340)
        assert result.depth == 8 and not result.exhausted
        assert [s.new_states for s in result.per_depth] == \
            [1, 4, 4, 12, 20, 28, 32, 42, 52]

    def test_every_depth_adds_up(self, explored_2n8):
        _, result = explored_2n8
        assert sum(s.new_states for s in result.per_depth) == result.states
        assert sum(s.transitions for s in result.per_depth) == \
            result.transitions
        assert sum(s.dedup_hits for s in result.per_depth) == \
            result.dedup_hits

    def test_single_node_space_exhausts(self, system):
        result = explore_system(system, nodes=1, depth=30)
        assert result.ok and result.exhausted
        assert result.depth < 30
        assert result.states == 46

    def test_3node_symmetry_reduces_states(self, system, explored_3n5):
        _, reduced = explored_3n5
        full = explore_system(system, nodes=3, depth=5, symmetry=False)
        assert reduced.ok and full.ok
        assert reduced.states < full.states
        # Same transition system modulo relabelling: identical depth at
        # which anything new appears.
        assert len(reduced.per_depth) == len(full.per_depth)

    def test_result_json_is_schema_tagged(self, explored_2n8):
        _, result = explored_2n8
        d = result.to_dict()
        assert d["schema"] == "repro.explore.result/v1"
        assert d["states"] == result.states
        assert "wall_seconds" not in d  # byte-stable per code version

    def test_render_mentions_no_violations(self, explored_2n8):
        _, result = explored_2n8
        assert "no violations" in result.render()

    def test_kernel_compile_failure_raises(self, system, monkeypatch):
        """A table the dispatch compiler cannot handle stops the run; it
        does not fall back to SQL lookups.  The run is on a fresh clone,
        whose kernels no earlier run can have compiled."""
        import repro.core.kernel as kernel_mod

        def broken(_system):
            raise SyntaxError("synthetic compile failure")

        clone = system.attach(
            ProtocolDatabase.deserialize(system.db.snapshot()))
        monkeypatch.setattr(kernel_mod, "compile_system_kernels", broken)
        try:
            with pytest.raises(ExplorationError,
                               match="kernel compilation failed: SyntaxError"):
                explore_system(clone, nodes=2, depth=2)
        finally:
            clone.db.close()


class TestWorkerParity:
    """Acceptance: results identical under --workers 4 and --workers 1."""

    def test_parallel_frontier_matches_serial(self, system):
        serial = explore_system(system, nodes=2, depth=8, workers=1)
        parallel = explore_system(system, nodes=2, depth=8, workers=4)
        assert parallel.to_dict() == serial.to_dict()

    def test_parallel_seen_set_matches_serial(self, system):
        a = ReachabilityExplorer(system, ExploreConfig(nodes=2, depth=7,
                                                       workers=1))
        b = ReachabilityExplorer(system, ExploreConfig(nodes=2, depth=7,
                                                       workers=4))
        a.run(), b.run()
        assert sorted(a.states) == sorted(b.states)
        assert a.pred == b.pred

    def test_parallel_3node_symmetric_matches_serial(self, system):
        serial = explore_system(system, nodes=3, depth=5, workers=1)
        parallel = explore_system(system, nodes=3, depth=5, workers=4)
        assert parallel.to_dict() == serial.to_dict()


class TestTelemetryParity:
    """Recording a run must not change what it finds."""

    def test_traced_run_matches_untraced_and_counts_its_work(self, system):
        cfg = dict(nodes=2, lines=2, depth=10, workers=2)
        untraced = explore_system(system, **cfg)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = explore_system(system, **cfg)
        assert traced.to_dict() == untraced.to_dict()
        counters = tracer.registry.snapshot()["counters"]
        assert counters["explore.states"] == traced.states
        assert counters["explore.transitions"] == traced.transitions

    def test_traced_run_keeps_its_worker_pool(self, system, tmp_path,
                                              monkeypatch):
        """Tracing does not send a multi-worker run inline: the pool's
        children call no tracer method, so the trace file holds exactly
        the parent's events and the result is the untraced one."""
        import repro.explore.explorer as explorer_mod
        from repro.telemetry.sinks import JsonlSink

        pools = []

        class RecordingPool(explorer_mod.KernelPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(explorer_mod, "KernelPool", RecordingPool)
        cfg = dict(nodes=3, depth=10, workers=2)
        untraced = explore_system(system, **cfg)
        pools.clear()
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        tracer = Tracer(sinks=[sink])
        try:
            with use_tracer(tracer):
                traced = explore_system(system, **cfg)
        finally:
            sink.close()
        assert len(pools) == 1
        assert traced.to_dict() == untraced.to_dict()
        lines = path.read_text().splitlines()
        assert tracer.events_emitted > 0
        assert len(lines) == tracer.events_emitted


class TestDifferentialParity:
    """Every reached state's extracted trace, replayed step by step,
    lands in the same canonical state."""

    def test_every_reached_state_replays_to_itself(self, system):
        explorer = ReachabilityExplorer(system,
                                        ExploreConfig(nodes=2, depth=6))
        result = explorer.run()
        assert result.ok
        for digest in explorer.states:
            moves = explorer.trace_to(digest)
            _, final = explorer.replay(moves)
            assert final == digest, f"divergence replaying to {digest}"

    def test_trace_depth_matches_bfs_level(self, explored_2n8):
        explorer, result = explored_2n8
        by_len = {}
        for digest in explorer.states:
            by_len.setdefault(len(explorer.trace_to(digest)), 0)
            by_len[len(explorer.trace_to(digest))] += 1
        assert [by_len[d] for d in sorted(by_len)] == \
            [s.new_states for s in result.per_depth]

    def test_replay_rejects_disabled_move(self, explored_2n8):
        explorer, _ = explored_2n8
        with pytest.raises(ExplorationError, match="did not commit"):
            explorer.replay([("deliver", "VC5", 1)])

    def test_trace_to_unknown_digest_raises(self, explored_2n8):
        explorer, _ = explored_2n8
        with pytest.raises(ExplorationError, match="not reached"):
            explorer.trace_to("no-such-digest")


class TestViolationDetection:
    def test_v4_deadlocks_on_first_request(self, system):
        result = explore_system(system, nodes=2, depth=4, assignment="v4")
        assert not result.ok
        kinds = {v.kind for v in result.violations}
        assert kinds == {"deadlock"}
        assert {v.depth for v in result.violations} == {1}
        assert "VC0@q0:read" in result.violations[0].detail
        assert result.exhausted  # everything beyond the deadlock is stuck

    def test_render_counts_each_violation_once(self, system):
        result = explore_system(system, nodes=2, depth=4, assignment="v4")
        table = result.render().splitlines()
        start = next(i for i, line in enumerate(table)
                     if line.split()[-1:] == ["bad"]) + 1
        rows = table[start:start + len(result.per_depth)]
        assert sum(int(row.split()[-1]) for row in rows) == \
            len(result.violations) == 4

    def test_v5_finds_figure4_by_exploration(self, system):
        """Paper section 4.2: exhaustive search does find the Figure 4
        deadlock, but only on a bounded configuration and after
        thousands of states (the SQL analysis needs none)."""
        result = explore_system(system, nodes=2, lines=2, depth=13,
                                assignment="v5", stop_on_violation=True)
        assert (result.states, result.transitions) == (8543, 17704)
        assert {(v.kind, v.depth) for v in result.violations} == \
            {("deadlock", 12)}
        for v in result.violations:
            assert "VC2@q0" in v.detail and "VC4@q0:mread" in v.detail

    def test_v5d_is_clean_at_the_figure4_bound(self, system):
        result = explore_system(system, nodes=2, lines=2, depth=13,
                                assignment="v5d", stop_on_violation=True)
        assert result.ok
        assert (result.states, result.transitions) == (8879, 18376)

    def test_v4_counterexample_renders(self, system):
        explorer = ReachabilityExplorer(
            system, ExploreConfig(nodes=2, depth=4, assignment="v4"))
        result = explorer.run()
        first = result.violations[0]
        art = explorer.counterexample(first.digest)
        assert "counterexample" in art and "read" in art

    def test_stop_on_violation_halts_early(self, system):
        eager = ReachabilityExplorer(
            system, ExploreConfig(nodes=2, depth=8, assignment="v4",
                                  stop_on_violation=True))
        result = eager.run()
        assert not result.ok
        assert result.depth <= 2  # v4 deadlocks on the first injected read


class TestJournaling:
    def test_resume_reproduces_uninterrupted_run(self, system, tmp_path):
        journal = str(tmp_path / "explore.jsonl")
        explore_system(system, nodes=2, depth=5, journal_path=journal)
        resumed = explore_system(system, nodes=2, depth=8,
                                 resume_from=journal)
        assert resumed.resumed_depths == 6  # depths 0..5
        straight = explore_system(system, nodes=2, depth=8)
        assert resumed.to_dict() == straight.to_dict()

    def test_resume_rejects_mismatched_topology(self, system, tmp_path):
        journal = str(tmp_path / "explore.jsonl")
        explore_system(system, nodes=2, depth=3, journal_path=journal)
        with pytest.raises(JournalError, match="nodes"):
            explore_system(system, nodes=3, depth=5, resume_from=journal)

    def test_resume_compares_symmetry_modes(self, system, tmp_path):
        # ``True`` spells "quad": the header stores the mode, so a
        # default run's journal resumes under an explicit --symmetry quad.
        journal = str(tmp_path / "explore.jsonl")
        explore_system(system, nodes=2, depth=3, journal_path=journal)
        resumed = explore_system(system, nodes=2, depth=5,
                                 symmetry="quad", resume_from=journal)
        straight = explore_system(system, nodes=2, depth=5, symmetry="quad")
        assert resumed.to_dict() == straight.to_dict()
        header, _ = load_journal(journal)
        assert header["symmetry"] == "quad"

    def test_resume_rejects_journal_with_extra_key(self, system, tmp_path):
        # A --quads journal cannot seed a run on the default topology.
        journal = str(tmp_path / "explore.jsonl")
        explore_system(system, nodes=2, depth=3, quads=2,
                       journal_path=journal)
        with pytest.raises(JournalError, match="quads=2 there"):
            explore_system(system, nodes=2, depth=5, resume_from=journal)

    def test_resume_rejects_other_symmetry_mode(self, system, tmp_path):
        journal = str(tmp_path / "explore.jsonl")
        explore_system(system, nodes=2, depth=3, symmetry="full",
                       journal_path=journal)
        with pytest.raises(JournalError, match="symmetry"):
            explore_system(system, nodes=2, depth=5, symmetry="quad",
                           resume_from=journal)

    def test_resume_refuses_another_family_member(self, system, tmp_path):
        # The header names the explored system's member, whether the
        # explorer is driven through the CLI or, as here, the API.
        from repro.protocols.family import build_variant

        moesi = build_variant("moesi")
        journal = str(tmp_path / "explore.jsonl")
        explore_system(moesi, nodes=2, depth=3, journal_path=journal)
        assert load_journal(journal)[0]["variant"] == "moesi"
        with pytest.raises(JournalError, match="variant"):
            explore_system(system, nodes=2, depth=5, resume_from=journal)

    def test_config_validation(self, system):
        for bad in (dict(nodes=0), dict(depth=-1), dict(lines=0),
                    dict(capacity=0), dict(kernel="interpreted")):
            with pytest.raises(ExplorationError):
                ReachabilityExplorer(system, ExploreConfig(**bad))


class TestSummaryTable:
    def test_write_summary_round_trips_snapshot(self, fresh_system):
        explorer = ReachabilityExplorer(fresh_system,
                                        ExploreConfig(nodes=2, depth=4))
        result = explorer.run()
        explorer.write_summary(fresh_system.db, result)
        from repro.core.database import ProtocolDatabase
        clone = ProtocolDatabase.deserialize(fresh_system.db.snapshot())
        try:
            assert clone.table_exists(SUMMARY_TABLE)
            rows = clone.rows(SUMMARY_TABLE, order_by="CAST(depth AS INT)")
            assert len(rows) == len(result.per_depth)
            assert [int(r["new_states"]) for r in rows] == \
                [s.new_states for s in result.per_depth]
        finally:
            clone.close()


def test_explore_result_ok_reflects_violations():
    result = ExploreResult(nodes=2, lines=1, depth=1, depth_bound=1,
                           assignment="v5d", symmetry=True, states=1,
                           transitions=0, dedup_hits=0)
    assert result.ok
    result.violations.append(object())
    assert not result.ok
