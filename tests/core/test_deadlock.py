"""Unit tests for the deadlock analyzer on a small synthetic protocol."""

import pytest

from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    ChannelAssignment,
    ControllerMessageSpec,
    DeadlockAnalyzer,
    DependencyRow,
    MessageTriple,
    MissingAssignmentError,
    VCAssignment,
)
from repro.core.quad import ALL_PLACEMENTS, Placement
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable

from .deadlock_oracle import RowAtATimeAnalyzer, cyclic_vertices_sql


class TestChannelAssignment:
    def make(self):
        return ChannelAssignment("v", [
            VCAssignment("req", "local", "home", "VC0"),
            VCAssignment("resp", "home", "local", "VC1"),
        ])

    def test_lookup(self):
        assert self.make().lookup("req", "local", "home") == "VC0"

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignmentError, match="no channel"):
            self.make().lookup("req", "home", "local")

    def test_conflicting_assignment_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            ChannelAssignment("v", [
                VCAssignment("m", "local", "home", "VC0"),
                VCAssignment("m", "local", "home", "VC1"),
            ])

    def test_duplicate_consistent_assignment_ok(self):
        ChannelAssignment("v", [
            VCAssignment("m", "local", "home", "VC0"),
            VCAssignment("m", "local", "home", "VC0"),
        ])

    def test_channels(self):
        assert self.make().channels() == {"VC0", "VC1"}

    def test_blocking_excludes_dedicated(self):
        v = ChannelAssignment("v", self.make().assignments, dedicated=("VC1",))
        assert v.blocking_channels() == {"VC0"}

    def test_reassigned(self):
        v = self.make().reassigned("v2", {("req", "local", "home"): "VC9"})
        assert v.lookup("req", "local", "home") == "VC9"
        assert v.lookup("resp", "home", "local") == "VC1"

    def test_to_table_uses_paper_columns(self, db):
        name = self.make().to_table(db)
        assert db.table_columns(name) == ["m", "s", "d", "v"]
        assert db.row_count(name) == 2


def _controller(db, name, rows):
    """A minimal controller table with one in-triple and one out-triple."""
    roles = ("local", "home", "remote")
    schema = TableSchema(name, [
        Column("im", ("req", "fwd", "resp", "ack"), Role.INPUT),
        Column("isrc", roles, Role.INPUT),
        Column("idst", roles, Role.INPUT),
        Column("om", ("req", "fwd", "resp", "ack"), Role.OUTPUT),
        Column("osrc", roles, Role.OUTPUT),
        Column("odst", roles, Role.OUTPUT),
    ])
    table = ControllerTable.from_rows(db, schema, rows)
    return ControllerMessageSpec(
        controller=table,
        input_triple=MessageTriple("im", "isrc", "idst"),
        output_triples=(MessageTriple("om", "osrc", "odst"),),
    )


@pytest.fixture()
def toy(db):
    """Controller A forwards requests to B; B responds back through A.

    V routes req on VC0, fwd on VC1, resp on VC2, ack on VC3; with the
    cyclic variant, processing resp requires emitting on VC0 again.
    """
    a = _controller(db, "A", [
        {"im": "req", "isrc": "local", "idst": "home",
         "om": "fwd", "osrc": "home", "odst": "remote"},
        {"im": "resp", "isrc": "remote", "idst": "home",
         "om": "ack", "osrc": "home", "odst": "local"},
    ])
    b = _controller(db, "B", [
        {"im": "fwd", "isrc": "home", "idst": "remote",
         "om": "resp", "osrc": "remote", "odst": "home"},
    ])
    v = ChannelAssignment("toy", [
        VCAssignment("req", "local", "home", "VC0"),
        VCAssignment("fwd", "home", "remote", "VC1"),
        VCAssignment("resp", "remote", "home", "VC2"),
        VCAssignment("ack", "home", "local", "VC3"),
    ])
    return db, [a, b], v


class TestDependencyRows:
    def test_direct_rows_extracted(self, toy):
        db, specs, v = toy
        analyzer = RowAtATimeAnalyzer(db, specs, v)
        rows = analyzer.controller_dependency_rows(specs[0])
        assert {(r.in_vc, r.out_vc) for r in rows} == {("VC0", "VC1"),
                                                       ("VC2", "VC3")}

    def test_rows_skip_null_outputs(self, db):
        spec = _controller(db, "S", [
            {"im": "req", "isrc": "local", "idst": "home",
             "om": None, "osrc": None, "odst": None},
        ])
        v = ChannelAssignment("v", [VCAssignment("req", "local", "home", "VC0")])
        rows = RowAtATimeAnalyzer(db, [spec], v).controller_dependency_rows(
            spec)
        assert rows == []

    def test_missing_assignment_surfaces(self, toy):
        db, specs, _ = toy
        v = ChannelAssignment("incomplete", [
            VCAssignment("req", "local", "home", "VC0"),
        ])
        with pytest.raises(MissingAssignmentError):
            RowAtATimeAnalyzer(db, specs, v).controller_dependency_rows(
                specs[0])

    def test_placement_substitutes_roles_not_channels(self, toy):
        db, specs, v = toy
        analyzer = RowAtATimeAnalyzer(db, specs, v)
        exact = analyzer.controller_dependency_rows(specs[0])
        merged = analyzer.apply_placement(exact, Placement.HOME_REMOTE)
        resp = next(r for r in merged if r.in_msg == "resp")
        assert resp.in_src == "home"     # remote rewritten to home
        assert resp.in_vc == "VC2"       # channel unchanged (paper's R2')
        assert resp.placement == "L!=H=R"


class TestAnalysis:
    def test_acyclic_toy_is_deadlock_free(self, toy):
        db, specs, v = toy
        analysis = DeadlockAnalyzer(db, specs, v).analyze()
        assert analysis.is_deadlock_free()
        assert analysis.cycles() == []

    def test_composition_adds_transitive_rows(self, toy):
        db, specs, v = toy
        analysis = DeadlockAnalyzer(db, specs, v).analyze(
            placements=(Placement.ALL_DISTINCT,),
        )
        composed = [r for r in analysis.dependency_rows if r.derived == "composed"]
        # A's (req -> fwd) composes with B's (fwd -> resp): VC0 -> VC2.
        assert ("VC0", "VC2") in {r.edge() for r in composed}

    def test_exact_match_requires_message_equality(self, db):
        # Without ignore_messages, mismatched message names do not compose
        # even when src/dst/vc line up.
        a = _controller(db, "A", [
            {"im": "req", "isrc": "local", "idst": "home",
             "om": "fwd", "osrc": "home", "odst": "remote"},
        ])
        b = _controller(db, "B", [
            {"im": "ack", "isrc": "home", "idst": "remote",
             "om": "resp", "osrc": "remote", "odst": "home"},
        ])
        v = ChannelAssignment("v", [
            VCAssignment("req", "local", "home", "VC0"),
            VCAssignment("fwd", "home", "remote", "VC1"),
            VCAssignment("ack", "home", "remote", "VC1"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ])
        strict = DeadlockAnalyzer(db, [a, b], v).analyze(
            placements=(Placement.ALL_DISTINCT,), ignore_messages=False,
            table_name="pdt_strict",
        )
        assert all(r.derived == "direct" for r in strict.dependency_rows)
        relaxed = DeadlockAnalyzer(db, [a, b], v).analyze(
            placements=(Placement.ALL_DISTINCT,), ignore_messages=True,
            table_name="pdt_relaxed",
        )
        assert any(r.derived == "composed" for r in relaxed.dependency_rows)

    def test_cycle_detected(self, db):
        # A consumes resp on VC2 and must emit fwd on VC1; B consumes fwd
        # on VC1 and must emit resp on VC2: the classic 2-cycle.
        a = _controller(db, "A", [
            {"im": "resp", "isrc": "remote", "idst": "home",
             "om": "fwd", "osrc": "home", "odst": "remote"},
        ])
        b = _controller(db, "B", [
            {"im": "fwd", "isrc": "home", "idst": "remote",
             "om": "resp", "osrc": "remote", "odst": "home"},
        ])
        v = ChannelAssignment("v", [
            VCAssignment("fwd", "home", "remote", "VC1"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ])
        analysis = DeadlockAnalyzer(db, [a, b], v).analyze()
        assert ("VC1", "VC2") in analysis.cycles()
        assert not analysis.is_deadlock_free()

    def test_dedicated_channel_breaks_cycle(self, db):
        a = _controller(db, "A", [
            {"im": "resp", "isrc": "remote", "idst": "home",
             "om": "fwd", "osrc": "home", "odst": "remote"},
        ])
        b = _controller(db, "B", [
            {"im": "fwd", "isrc": "home", "idst": "remote",
             "om": "resp", "osrc": "remote", "odst": "home"},
        ])
        v = ChannelAssignment("v", [
            VCAssignment("fwd", "home", "remote", "PDED"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ], dedicated=("PDED",))
        analysis = DeadlockAnalyzer(db, [a, b], v).analyze()
        assert analysis.is_deadlock_free()
        assert "PDED" not in analysis.vcg.nodes

    def test_sql_and_scc_cycle_detectors_agree(self, toy):
        db, specs, v = toy
        analysis = DeadlockAnalyzer(db, specs, v).analyze()
        assert analysis.cyclic_channels() == cyclic_vertices_sql(
            analysis.vcg.edges)

    def test_closure_superset_of_pairwise(self, toy):
        db, specs, v = toy
        pairwise = DeadlockAnalyzer(db, specs, v).analyze(
            table_name="pdt_pw",
        )
        closure = DeadlockAnalyzer(db, specs, v).analyze(
            closure=True, table_name="pdt_cl",
        )
        pw_edges = {r.edge() for r in pairwise.dependency_rows}
        cl_edges = {r.edge() for r in closure.dependency_rows}
        assert pw_edges <= cl_edges

    def test_witnesses_prefer_direct_rows(self, db):
        a = _controller(db, "A", [
            {"im": "resp", "isrc": "remote", "idst": "home",
             "om": "fwd", "osrc": "home", "odst": "remote"},
        ])
        b = _controller(db, "B", [
            {"im": "fwd", "isrc": "home", "idst": "remote",
             "om": "resp", "osrc": "remote", "odst": "home"},
        ])
        v = ChannelAssignment("v", [
            VCAssignment("fwd", "home", "remote", "VC1"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ])
        analysis = DeadlockAnalyzer(db, [a, b], v).analyze()
        witnesses = analysis.witnesses(("VC1", "VC2"))
        first = witnesses[("VC1", "VC2")][0]
        assert first.derived == "direct"
        scenario = analysis.scenario(("VC1", "VC2"))
        assert "waits on" in scenario

    def test_report_lists_cycles(self, db):
        a = _controller(db, "A", [
            {"im": "resp", "isrc": "remote", "idst": "home",
             "om": "fwd", "osrc": "home", "odst": "remote"},
        ])
        b = _controller(db, "B", [
            {"im": "fwd", "isrc": "home", "idst": "remote",
             "om": "resp", "osrc": "remote", "odst": "home"},
        ])
        v = ChannelAssignment("v", [
            VCAssignment("fwd", "home", "remote", "VC1"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ])
        report = DeadlockAnalyzer(db, [a, b], v).analyze().report()
        assert not report.passed
        assert "cycle" in report.render()
