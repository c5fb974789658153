"""Campaign-level resilience: crashed mutants, layer errors, journaling,
resume, interruption and per-mutant telemetry — the acceptance
behaviors of the crash-safe runtime (docs/RESILIENCE.md)."""

import pytest

import repro.faults.campaign as campaign_mod
from repro import telemetry
from repro.core.database import DatabaseError
from repro.faults import run_campaign
from repro.protocols.asura.system import AsuraSystem
from repro.runtime import JournalError, load_journal


class TestCrashedWorkers:
    def test_one_crash_keeps_the_campaign_going(self, system, monkeypatch):
        orig = campaign_mod._run_mutant

        def exploding(snapshot, mutation, assignment, clean_cycles,
                      sim_ops, oracle=None, repair=None):
            if mutation.mutant_id == 1:
                raise RuntimeError("synthetic worker crash")
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", exploding)
        result = run_campaign(system=system, seed=0, count=3)
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
        assert "RuntimeError: synthetic worker crash" == crashed.detail

    def test_one_crash_does_not_discard_siblings(self, system, tmp_path,
                                                 monkeypatch):
        """The mutants around a crashed one keep the very reports a
        clean run gives them, and each is journaled."""
        clean = run_campaign(system=system, seed=0, count=3)
        orig = campaign_mod._run_mutant

        def exploding(snapshot, mutation, assignment, clean_cycles,
                      sim_ops, oracle=None, repair=None):
            if mutation.mutant_id == 1:
                raise RuntimeError("boom on 1")
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", exploding)
        path = str(tmp_path / "campaign.jsonl")
        result = run_campaign(system=system, seed=0, count=3,
                              journal_path=path)
        assert [r.outcome for r in result.reports] == [
            "ok", "crashed", "ok"]
        assert result.reports[1].detail == "RuntimeError: boom on 1"
        for i in (0, 2):
            assert result.reports[i].to_dict() == clean.reports[i].to_dict()
        _, units = load_journal(path)
        assert sorted(units) == [0, 1, 2]
        assert units[1]["outcome"] == "crashed"


class TestLayerErrors:
    """A DatabaseError in a static layer is that layer's detection the
    first time it occurs: no layer re-runs on another path."""

    def test_invariant_layer_error_is_a_detection(self, system,
                                                  monkeypatch):
        # Break the determinism checks, which close the merged sweep.
        orig = AsuraSystem.check_determinism
        calls = []

        def broken(self, **kw):
            if self is system:  # the clean baseline runs untouched
                return orig(self, **kw)
            calls.append(self)
            raise DatabaseError("OperationalError: checker gone")

        monkeypatch.setattr(AsuraSystem, "check_determinism", broken)
        result = run_campaign(system=system, seed=0, count=2,
                              classes=("drop-row",))
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
                              classes=("reassign-channel",))
        assert [r.detected_by for r in result.reports] == ["deadlock"] * 2
        assert all(r.detail == "analysis error: OperationalError: "
                   "analysis gone" for r in result.reports)
        assert all(r.outcome == "ok" for r in result.reports)
        assert len(calls) == 2  # once per mutant: nothing retried


class TestJournalAndResume:
    def test_journal_written_per_completed_mutant(self, system, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        result = run_campaign(system=system, seed=0, count=3,
                              journal_path=path)
        header, units = load_journal(path)
        assert header["kind"] == "mutation-campaign"
        assert header["seed"] == 0
        assert sorted(units) == [0, 1, 2]
        assert units[0] == result.reports[0].to_dict()

    def test_resume_skips_journaled_mutants_exactly(self, system, tmp_path,
                                                    monkeypatch):
        path = str(tmp_path / "campaign.jsonl")
        full = run_campaign(system=system, seed=0, count=6)
        run_campaign(system=system, seed=0, count=3, journal_path=path)

        executed = []
        orig = campaign_mod._run_mutant

        def counting(snapshot, mutation, assignment, clean_cycles,
                     sim_ops, oracle=None, repair=None):
            executed.append(mutation.mutant_id)
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", counting)
        resumed = run_campaign(system=system, seed=0, count=6,
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
        run_campaign(system=system, seed=0, count=2, journal_path=path)
        with pytest.raises(JournalError, match="seed"):
            run_campaign(system=system, seed=1, count=2, resume_from=path)

    def test_resumed_counter_reported(self, system, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        run_campaign(system=system, seed=0, count=2, journal_path=path)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            resumed = run_campaign(system=system, seed=0, count=4,
                                   resume_from=path)
        assert tracer.registry.counter("runtime.resumed_units") == 2
        assert "resumed from journal: 2 mutants" in resumed.render()


class TestInterruption:
    def test_keyboard_interrupt_stops_then_resume_completes(
            self, system, tmp_path, monkeypatch):
        """Ctrl-C in mutant #2 is not a crash: it stops the run with
        mutants 0-1 journaled, and a resume matches a full run."""
        full = run_campaign(system=system, seed=0, count=4)
        path = str(tmp_path / "campaign.jsonl")
        orig = campaign_mod._run_mutant

        def interrupted(snapshot, mutation, assignment, clean_cycles,
                        sim_ops, oracle=None, repair=None):
            if mutation.mutant_id == 2:
                raise KeyboardInterrupt
            return orig(snapshot, mutation, assignment, clean_cycles,
                        sim_ops)

        monkeypatch.setattr(campaign_mod, "_run_mutant", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(system=system, seed=0, count=4, journal_path=path)
        _, units = load_journal(path)
        assert sorted(units) == [0, 1]

        monkeypatch.setattr(campaign_mod, "_run_mutant", orig)
        resumed = run_campaign(system=system, seed=0, count=4,
                               resume_from=path)
        assert resumed.resumed == 2
        assert resumed.to_dict() == full.to_dict()


class TestInlineCampaign:
    def test_recording_tracer_does_not_change_results(self, system):
        plain = run_campaign(system=system, seed=0, count=8)
        with telemetry.use_tracer(telemetry.Tracer(
                sinks=[telemetry.ListSink()])):
            traced = run_campaign(system=system, seed=0, count=8)
        assert traced.to_dict() == plain.to_dict()

    def test_mutant_telemetry_is_attributed_inline(self, system):
        sink = telemetry.ListSink()
        with telemetry.use_tracer(telemetry.Tracer(sinks=[sink])):
            result = run_campaign(system=system, seed=0, count=8)
        (started,) = sink.of_type("campaign.started")
        assert "workers" not in started
        # Every per-mutant span: all but the enclosing mutate.campaign.
        unit_spans = [e for e in sink.of_type("span")
                      if e["name"].startswith("mutate.")
                      and e["name"] != "mutate.campaign"]
        assert {e["unit_id"] for e in unit_spans} == set(range(8))
        assert all(e["worker_id"] == "inline" and
                   e["run_id"] == started["run_id"] for e in unit_spans)
        finished = sink.of_type("unit.finished")
        assert [e["unit_id"] for e in finished] == list(range(8))
        assert all(e["outcome"] == "ok" for e in finished)
        assert result.count == 8

    def test_mutants_share_the_callers_tracer(self, system):
        """Per-mutant spans fold into the caller's tracer, under the
        campaign's run_id; no second tracer has to be merged in."""
        sink = telemetry.ListSink()
        with telemetry.use_tracer(telemetry.Tracer(sinks=[sink])) as tracer:
            run_campaign(system=system, seed=0, count=3)
            stats = {name: s.count for name, s in tracer.span_stats.items()
                     if name.startswith("mutate.")}
        assert stats["mutate.campaign"] == 1
        for name in ("mutate.clone", "mutate.apply", "mutate.invariants"):
            assert stats[name] == 3
        (started,) = sink.of_type("campaign.started")
        spans = [e for e in sink.of_type("span")
                 if e["name"] == "mutate.apply"]
        assert [e["unit_id"] for e in spans] == [0, 1, 2]
        assert all(e["run_id"] == started["run_id"] and
                   e["worker_id"] == "inline" for e in spans)

    def test_process_workers_are_refused(self, system):
        with pytest.raises(ValueError, match="inline"):
            run_campaign(system=system, seed=0, count=1, workers=2)
