"""Differential test pinning the Figure 4 reproduction.

The paper debugs ASURA's deadlock in two stages: the VCG analysis of the
pre-fix V (our ``v5``) finds the response/request cycles, and the
published fix dedicates hardware paths to the response-triggered memory
requests (our ``v5d``).  The closed loop must reproduce that outcome
with zero manual steps: starting from ``v5``, the pipeline emits either
the committed golden fix (dedicated paths for the home-side ``data`` /
``mdone`` responses, cost 1) or a *cheaper* fix that still passes full
re-verification — the same prefix-stable gating contract
``compare_to_baseline`` applies to detection matrices.
"""

import json
import os

import pytest

from repro.analysis.closedloop import (
    REPAIR_BENCH_SCHEMA,
    build_repair_report,
    compare_repair_baseline,
)

from . import deadlock_oracle

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "BENCH_repair.json")


def final_assignment(system, report):
    """The report's repaired V: its base assignment on ``system`` with
    each applied fix's changes and dedicated channels."""
    v = system.channel_assignments[report["assignment"]]
    for fix in report["repair"]["fixes"]:
        v = v.reassigned(
            fix["assignment"],
            {(m, s, d): ch for m, s, d, ch in fix["changes"]},
            dedicated=v.dedicated | set(fix["dedicated"]))
    return v


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current(golden):
    """One live closed-loop run under the committed budgets."""
    cov = golden["coverage"]
    return build_repair_report(
        assignment=golden["assignment"], rounds=golden["rounds"],
        oracle_depth=golden["oracle_depth"],
        seeds=[r["seed"] for r in cov["runs"]],
        n_ops=cov["n_ops"], max_steps=cov["max_steps"])


class TestGoldenFixture:
    def test_committed_report_shape(self, golden):
        assert golden["schema"] == REPAIR_BENCH_SCHEMA
        assert golden["assignment"] == "v5"
        repair = golden["repair"]
        assert repair["success"] and repair["initial_cycles"] == 3
        assert all(v["ok"] for v in repair["reverified"])
        # The golden fix is the paper's fix *class*: dedicated hardware
        # paths for the home-side responses on the cyclic channels.
        (fix,) = repair["fixes"]
        assert fix["kind"] == "dedicate-message"
        assert {c[0] for c in fix["changes"]} == {"data", "mdone"}
        assert fix["cost"] == 1

    def test_coverage_runs_strictly_positive(self, golden):
        runs = golden["coverage"]["runs"]
        assert [r["seed"] for r in runs] == [0, 1, 2]
        assert all(r["delta"] > 0 for r in runs)

    def test_no_regression_vs_golden(self, current, golden):
        assert compare_repair_baseline(current, golden) == []

    def test_fix_matches_golden_or_is_cheaper_and_verified(
            self, current, golden):
        cur, base = current["repair"], golden["repair"]
        assert cur["success"]
        if cur["fixes"] != base["fixes"]:
            assert cur["total_cost"] < base["total_cost"]
        assert all(v["ok"] for v in cur["reverified"])

    def test_two_stage_walkthrough(self, system, current):
        """Figure 4 end to end: stage one finds the pre-fix cycles,
        stage two's applied fix is re-verified free by the engine, the
        row-at-a-time oracle engine and the bounded oracle."""
        repair = current["repair"]
        assert repair["initial_cycles"] == 3  # readex/mread wait cycles
        assert repair["final_cycles"] == 0
        final = repair["reverified"][-1]
        assert final["deadlock_sql"]["free"]
        assert deadlock_oracle.analyze(
            system.db, system.deadlock_specs(),
            final_assignment(system, current),
            table_name="pdt_golden_oracle").cycles() == []
        assert final["invariants"] is True
        assert final["oracle"]["caught"] is False


class TestBaselineGate:
    def test_schema_mismatch_rejected(self, golden):
        failures = compare_repair_baseline(
            golden, dict(golden, schema="bogus"))
        assert failures and "schema" in failures[0]

    def test_parameter_drift_rejected(self, golden):
        failures = compare_repair_baseline(
            dict(golden, rounds=99), golden)
        assert any("rounds" in f for f in failures)

    def test_lost_repair_is_a_regression(self, golden):
        broken = json.loads(json.dumps(golden))
        broken["repair"]["success"] = False
        failures = compare_repair_baseline(broken, golden)
        assert any("did not converge" in f for f in failures)

    def test_cost_increase_is_a_regression(self, golden):
        pricier = json.loads(json.dumps(golden))
        pricier["repair"]["total_cost"] += 1
        failures = compare_repair_baseline(pricier, golden)
        assert any("more expensive" in f for f in failures)

    def test_lost_coverage_win_is_a_regression(self, golden):
        flat = json.loads(json.dumps(golden))
        run = flat["coverage"]["runs"][0]
        run["guided_rows"] = run["fixed_rows"]
        run["delta"] = 0
        failures = compare_repair_baseline(flat, golden)
        assert any("no longer beats" in f for f in failures)
