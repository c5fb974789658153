"""Tests for the campaign's fifth stage: automatic deadlock repair."""

import json

import pytest

from repro.faults.campaign import (
    DetectionReport,
    compare_to_baseline,
    run_campaign,
)

CLASSES = ("reassign-channel",)


@pytest.fixture(scope="module")
def repair_campaign(system):
    return run_campaign(system=system, seed=0, count=4, classes=CLASSES,
                        repair=True)


@pytest.fixture(scope="module")
def plain_campaign(system):
    return run_campaign(system=system, seed=0, count=4, classes=CLASSES)


class TestRepairStage:
    def test_deadlock_caught_mutants_get_repair(self, repair_campaign):
        for r in repair_campaign.reports:
            if r.detected_by == "deadlock":
                assert r.repair is not None
            else:
                assert r.repair is None

    def test_repairs_reverified(self, repair_campaign):
        repaired = [r for r in repair_campaign.reports
                    if r.repair and r.repair.get("success")]
        assert repaired
        for r in repaired:
            assert r.repair["final_cycles"] == 0
            assert r.repair["reverified"]
            assert all(v["ok"] for v in r.repair["reverified"])
            costs = [f["cost"] for f in r.repair["fixes"]]
            assert costs == sorted(costs)

    def test_totals_gain_repair_counts(self, repair_campaign):
        totals = repair_campaign.totals()
        assert totals["repair_attempted"] == totals["deadlock"]
        assert 0 < totals["repaired"] <= totals["repair_attempted"]

    def test_render_mentions_repair(self, repair_campaign):
        text = repair_campaign.render()
        assert "repair stage" in text and "repaired:" in text

    def test_detection_verdicts_unchanged_by_repair(self, repair_campaign,
                                                    plain_campaign):
        """Repair observes; it never changes what was detected where."""
        strip = [(r.mutant_id, r.fault_class, r.detected_by, r.detail)
                 for r in repair_campaign.reports]
        assert strip == [(r.mutant_id, r.fault_class, r.detected_by,
                          r.detail) for r in plain_campaign.reports]

    def test_plain_matrix_has_no_repair_keys(self, plain_campaign):
        doc = plain_campaign.to_dict()
        assert "repair" not in doc
        assert "repair_attempted" not in doc["totals"]
        assert all("repair" not in m for m in doc["mutants"])

    def test_repair_config_stamped_in_matrix(self, repair_campaign):
        doc = repair_campaign.to_dict()
        assert doc["repair"] == {"rounds": 4, "oracle_depth": 0}

    def test_report_roundtrip_preserves_repair(self, repair_campaign):
        for r in repair_campaign.reports:
            d = r.to_dict()
            assert DetectionReport.from_dict(
                json.loads(json.dumps(d))).to_dict() == d


class TestRepairJournal:
    def test_resume_preserves_repair_outcomes(self, system, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        full = run_campaign(system=system, seed=1, count=3, classes=CLASSES,
                            repair=True, journal_path=journal)
        resumed = run_campaign(system=system, seed=1, count=3,
                               classes=CLASSES, repair=True,
                               resume_from=journal)
        assert resumed.resumed == 3
        assert resumed.to_dict() == full.to_dict()

    def test_repair_config_guards_resume(self, system, tmp_path):
        journal = str(tmp_path / "camp.jsonl")
        run_campaign(system=system, seed=1, count=2, classes=CLASSES,
                     repair=True, journal_path=journal)
        from repro.runtime import JournalError
        with pytest.raises(JournalError, match="repair"):
            run_campaign(system=system, seed=1, count=2, classes=CLASSES,
                         resume_from=journal)


class TestBaselineCompareRepair:
    def _doc(self, repair_campaign):
        return repair_campaign.to_dict()

    def test_identical_runs_clean(self, repair_campaign):
        doc = self._doc(repair_campaign)
        assert compare_to_baseline(doc, doc) == []

    def test_repair_parameter_mismatch_reported(self, repair_campaign,
                                                plain_campaign):
        failures = compare_to_baseline(plain_campaign.to_dict(),
                                       self._doc(repair_campaign))
        assert any("repair" in f for f in failures)

    def test_lost_repair_is_a_regression(self, repair_campaign):
        base = self._doc(repair_campaign)
        cur = json.loads(json.dumps(base))
        broken = next(m for m in cur["mutants"]
                      if m.get("repair", {}).get("success"))
        broken["repair"] = {"success": False, "error": "search diverged"}
        failures = compare_to_baseline(cur, base)
        assert any("was repaired and re-verified" in f for f in failures)

    def test_unrepaired_in_both_is_not_a_regression(self, repair_campaign):
        base = json.loads(json.dumps(self._doc(repair_campaign)))
        for m in base["mutants"]:
            if m.get("repair"):
                m["repair"] = {"success": False, "error": "nope"}
        assert compare_to_baseline(base, base) == []
