"""Tests for the automated channel-assignment repair search."""

import pytest

from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    ChannelAssignment,
    ControllerMessageSpec,
    MessageTriple,
    VCAssignment,
)
from repro.core.repair import DeadlockRepairer, Fix
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable


def toy_specs(db):
    """A two-controller ping-pong with a guaranteed VC1/VC2 cycle."""
    roles = ("local", "home", "remote")
    msgs = ("fwd", "resp")

    def controller(name, rows):
        schema = TableSchema(name, [
            Column("im", msgs, Role.INPUT),
            Column("isrc", roles, Role.INPUT),
            Column("idst", roles, Role.INPUT),
            Column("om", msgs, Role.OUTPUT),
            Column("osrc", roles, Role.OUTPUT),
            Column("odst", roles, Role.OUTPUT),
        ])
        table = ControllerTable.from_rows(db, schema, rows)
        return ControllerMessageSpec(
            controller=table,
            input_triple=MessageTriple("im", "isrc", "idst"),
            output_triples=(MessageTriple("om", "osrc", "odst"),),
        )

    a = controller("A", [
        {"im": "resp", "isrc": "remote", "idst": "home",
         "om": "fwd", "osrc": "home", "odst": "remote"},
    ])
    b = controller("B", [
        {"im": "fwd", "isrc": "home", "idst": "remote",
         "om": "resp", "osrc": "remote", "odst": "home"},
    ])
    v = ChannelAssignment("toy", [
        VCAssignment("fwd", "home", "remote", "VC1"),
        VCAssignment("resp", "remote", "home", "VC2"),
    ])
    return [a, b], v


class TestToyRepair:
    def test_finds_a_fix(self, db):
        specs, v = toy_specs(db)
        result = DeadlockRepairer(db, specs, v).search()
        assert result.success
        assert result.initial_cycles and not result.final_cycles
        assert result.applied

    def test_prefers_cheap_fix_over_channel_dedication(self, db):
        specs, v = toy_specs(db)
        result = DeadlockRepairer(db, specs, v).search()
        assert all(f.kind != "dedicate-channel" for f in result.applied)

    def test_fixed_assignment_is_verified_deadlock_free(self, db):
        from repro.core.deadlock import DeadlockAnalyzer
        specs, v = toy_specs(db)
        result = DeadlockRepairer(db, specs, v).search()
        analysis = DeadlockAnalyzer(
            db, specs, result.final_assignment
        ).analyze(table_name="pdt_verify")
        assert analysis.is_deadlock_free()

    def test_already_free_assignment_untouched(self, db):
        specs, _ = toy_specs(db)
        v = ChannelAssignment("free", [
            VCAssignment("fwd", "home", "remote", "VC1"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ], dedicated=("VC2",))
        result = DeadlockRepairer(db, specs, v).search()
        assert result.success and not result.applied
        assert result.final_assignment is v

    def test_render(self, db):
        specs, v = toy_specs(db)
        text = DeadlockRepairer(db, specs, v).search().render()
        assert "repair search" in text and "deadlock-free" in text


class TestAsuraRepair:
    def test_v5_repaired_with_dedicated_paths(self, fresh_system):
        """The search rediscovers the paper's fix *class*: dedicated
        hardware paths for messages on the cyclic channels."""
        repairer = DeadlockRepairer(
            fresh_system.db,
            fresh_system.deadlock_specs(),
            fresh_system.channel_assignments["v5"],
        )
        result = repairer.search(max_rounds=4)
        assert result.success
        assert len(result.initial_cycles) == 3
        assert all(f.kind in ("move", "dedicate-message")
                   for f in result.applied)

    def test_paper_fix_is_among_the_successful_candidates(self, fresh_system):
        """Dedicating the response-triggered memory requests (the
        published fix, our v5d) is itself verified by the repairer's
        evaluator."""
        from repro.core.deadlock import DeadlockAnalyzer
        analysis = DeadlockAnalyzer(
            fresh_system.db,
            fresh_system.deadlock_specs(),
            fresh_system.channel_assignments["v5d"],
        ).analyze(table_name="pdt_paperfix")
        assert analysis.is_deadlock_free()


class TestReverifyOracleCanFail:
    """The bounded reachability oracle is re-verification's independent
    check, so it must be able to fail.  At the Figure 4 bound (2 nodes,
    2 lines, depth 13) it catches the unfixed v5 and passes the searched
    fix; at the depth-4, 1-line bound ``BENCH_repair.json`` commits it
    passes the unfixed v5 too (docs/REPAIR.md)."""

    FIGURE4 = {"nodes": 2, "lines": 2, "depth": 13, "capacity": 1}

    def test_catches_unfixed_v5_at_figure4_bound(self, system):
        from repro.explore.oracle import oracle_check

        verdict = oracle_check(system, assignment="v5",
                               stop_on_violation=True, **self.FIGURE4)
        assert (verdict.caught, verdict.kind, verdict.depth,
                verdict.states) == (True, "deadlock", 13, 8543)

    def test_committed_bound_passes_unfixed_v5(self, system):
        from repro.explore.oracle import oracle_check

        verdict = oracle_check(system, assignment="v5", depth=4, nodes=2,
                               lines=1, capacity=1, stop_on_violation=True)
        assert (verdict.caught, verdict.states) == (False, 41)

    def test_searched_fix_passes_at_figure4_bound(self, fresh_system):
        repairer = DeadlockRepairer.for_system(fresh_system, "v5")
        result = repairer.search(max_rounds=4)
        (final,) = repairer.reverify(
            result, oracle_depth=13, oracle_nodes=2, oracle_lines=2,
            oracle_capacity=1)
        assert final["assignment"] == "v5+ded-data-mdone"
        assert final["oracle"] == {"caught": False, "kind": "",
                                   "states": 8691, "depth": 13}
        assert final["ok"]


def schema_names(db):
    """Every table and index name in the database."""
    return sorted(r["name"] for r in db.query("SELECT name FROM sqlite_master"))


class TestRepairLeavesDatabaseAsFound:
    """Search and re-verification work in scratch tables they drop, so
    nothing they do reaches later snapshots, mutant clones or
    ``--save-db`` files."""

    def test_mesi_v5_search_and_reverify(self, fresh_system):
        before = schema_names(fresh_system.db)
        repairer = DeadlockRepairer.for_system(fresh_system, "v5")
        result = repairer.search(max_rounds=4)
        repairer.reverify(result, oracle_depth=2)
        assert result.success and result.evaluated
        assert schema_names(fresh_system.db) == before

    def test_in_campaign_repair_of_a_mutant_clone(self, system, monkeypatch):
        from repro.faults import campaign

        attempts = []
        attempt = campaign._attempt_repair

        def probed(clone, assignment, cfg):
            before = schema_names(clone.db)
            out = attempt(clone, assignment, cfg)
            attempts.append((before, schema_names(clone.db), out))
            return out

        monkeypatch.setattr(campaign, "_attempt_repair", probed)
        campaign.run_campaign(system=system, seed=0, count=1,
                              classes=("reassign-channel",), repair=True)
        assert attempts, "the mutant was not caught by the deadlock layer"
        for before, after, out in attempts:
            assert out.get("success") and out.get("evaluated")
            assert after == before
