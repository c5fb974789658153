"""Campaign-level resilience: crashed workers, layer errors, journaling,
resume, and the process watchdog — the acceptance behaviors of the
crash-safe runtime (docs/RESILIENCE.md)."""

import multiprocessing
import time

import pytest

import repro.faults.campaign as campaign_mod
from repro import telemetry
from repro.core.database import DatabaseError
from repro.faults import run_campaign
from repro.protocols.asura.system import AsuraSystem
from repro.runtime import JournalError, load_journal

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="monkeypatched behavior must be inherited by forked children")


class TestCrashedWorkers:
    @fork_only
    def test_one_crash_keeps_the_campaign_going(self, system, monkeypatch):
        orig = campaign_mod._run_mutant

        def exploding(snapshot, mutation, assignment, clean_cycles,
                      sim_ops, oracle=None, repair=None):
            if mutation.mutant_id == 1:
                raise RuntimeError("synthetic worker crash")
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", exploding)
        result = run_campaign(system=system, seed=0, count=3, workers=2)
        assert result.count == 3
        crashed = result.reports[1]
        assert crashed.outcome == "crashed"
        assert not crashed.caught and crashed.detected_by is None
        assert "synthetic worker crash" in crashed.detail
        assert all(r.outcome == "ok" for i, r in enumerate(result.reports)
                   if i != 1)
        assert result.totals()["crashed"] == 1
        assert result.reports[1].to_dict()["outcome"] == "crashed"
        assert "worker failures" in result.render()


class TestLayerErrors:
    """A DatabaseError in a static layer is that layer's detection the
    first time it occurs: no layer re-runs on another path."""

    def test_invariant_layer_error_is_a_detection(self, system,
                                                  monkeypatch):
        orig = AsuraSystem.check_invariants
        calls = []

        def broken(self, **kw):
            if self is system:  # the clean baseline runs untouched
                return orig(self, **kw)
            calls.append(self)
            raise DatabaseError("OperationalError: checker gone")

        monkeypatch.setattr(AsuraSystem, "check_invariants", broken)
        result = run_campaign(system=system, seed=0, count=2,
                              classes=("drop-row",), workers=1)
        assert [r.detected_by for r in result.reports] == ["invariants"] * 2
        assert all(r.detail == "checker error: OperationalError: "
                   "checker gone" for r in result.reports)
        assert all(r.outcome == "ok" for r in result.reports)
        assert len(calls) == 2  # once per mutant: nothing retried

    def test_deadlock_layer_error_is_a_detection(self, system,
                                                 monkeypatch):
        orig = AsuraSystem.analyze_deadlocks
        calls = []

        def broken(self, assignment, **kw):
            # Only the per-mutant analysis fails; the campaign's clean
            # baseline (table __mut_clean_dep) runs untouched.
            if kw.get("table_name") != "__mut_dep":
                return orig(self, assignment, **kw)
            calls.append(self)
            raise DatabaseError("OperationalError: analysis gone")

        monkeypatch.setattr(AsuraSystem, "analyze_deadlocks", broken)
        result = run_campaign(system=system, seed=0, count=2,
                              classes=("reassign-channel",), workers=1)
        assert [r.detected_by for r in result.reports] == ["deadlock"] * 2
        assert all(r.detail == "analysis error: OperationalError: "
                   "analysis gone" for r in result.reports)
        assert all(r.outcome == "ok" for r in result.reports)
        assert len(calls) == 2  # once per mutant: nothing retried


class TestJournalAndResume:
    def test_journal_written_per_completed_mutant(self, system, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        result = run_campaign(system=system, seed=0, count=3, workers=2,
                              journal_path=path)
        header, units = load_journal(path)
        assert header["kind"] == "mutation-campaign"
        assert header["seed"] == 0
        assert sorted(units) == [0, 1, 2]
        assert units[0] == result.reports[0].to_dict()

    def test_resume_skips_journaled_mutants_exactly(self, system, tmp_path,
                                                    monkeypatch):
        path = str(tmp_path / "campaign.jsonl")
        full = run_campaign(system=system, seed=0, count=6, workers=2)
        run_campaign(system=system, seed=0, count=3, workers=2,
                     journal_path=path)

        executed = []
        orig = campaign_mod._run_mutant

        def counting(snapshot, mutation, assignment, clean_cycles,
                     sim_ops, oracle=None, repair=None):
            executed.append(mutation.mutant_id)
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", counting)
        # Inline, so the calls are recorded in this process.
        resumed = run_campaign(system=system, seed=0, count=6, workers=1,
                               resume_from=path)
        # Only the three un-journaled mutants ran, each exactly once...
        assert sorted(executed) == [3, 4, 5]
        assert resumed.resumed == 3
        # ...and the merged matrix is identical to the uninterrupted run.
        assert resumed.to_dict() == full.to_dict()
        # The journal now covers all six for a future resume.
        _, units = load_journal(path)
        assert sorted(units) == [0, 1, 2, 3, 4, 5]

    def test_resume_validates_campaign_parameters(self, system, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(system=system, seed=0, count=2, workers=1,
                     journal_path=path)
        with pytest.raises(JournalError, match="seed"):
            run_campaign(system=system, seed=1, count=2, workers=1,
                         resume_from=path)

    def test_resumed_counter_reported(self, system, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(system=system, seed=0, count=2, workers=1,
                     journal_path=path)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            resumed = run_campaign(system=system, seed=0, count=4,
                                   resume_from=path)
        assert tracer.registry.counter("runtime.resumed_units") == 2
        assert "resumed from journal: 2 mutants" in resumed.render()


class TestProcessIsolation:
    def test_inline_matches_process_results(self, system):
        inline = run_campaign(system=system, seed=0, count=4, workers=1)
        isolated = run_campaign(system=system, seed=0, count=4, workers=2)
        assert isolated.to_dict() == inline.to_dict()

    def test_traced_campaign_keeps_its_workers(self, system):
        sink = telemetry.ListSink()
        with telemetry.use_tracer(telemetry.Tracer(sinks=[sink])):
            result = run_campaign(system=system, seed=0, count=3,
                                  workers=2)
        assert result.count == 3
        (started,) = sink.of_type("campaign.started")
        assert started["workers"] == 2
        spans = sink.of_type("span")
        unit_spans = [e for e in spans if "unit_id" in e]
        assert unit_spans
        assert all(e["worker_id"].startswith("proc-") for e in unit_spans)

    @fork_only
    def test_watchdog_reaps_hung_mutant(self, system, monkeypatch):
        orig = campaign_mod._run_mutant

        def hanging(snapshot, mutation, assignment, clean_cycles,
                    sim_ops, oracle=None, repair=None):
            if mutation.mutant_id == 0:
                time.sleep(120)  # forked child inherits this patch
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", hanging)
        t0 = time.monotonic()
        result = run_campaign(system=system, seed=0, count=3, workers=3,
                              timeout=5.0)
        assert time.monotonic() - t0 < 60
        hung = result.reports[0]
        assert hung.outcome == "timeout"
        assert hung.detected_by is None
        assert "timeout" in hung.detail
        assert all(r.outcome == "ok" for r in result.reports[1:])
        assert result.totals()["timeout"] == 1
