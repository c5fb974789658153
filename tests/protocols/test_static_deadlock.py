"""Static deadlock analysis on the ASURA protocol — the paper's
section 4 story end to end."""

import pytest

from repro.core.quad import ALL_PLACEMENTS, Placement

from ..core.deadlock_oracle import cyclic_vertices_sql


@pytest.fixture(scope="module")
def analyses(system):
    return {name: system.analyze_deadlocks(name) for name in ("v4", "v5", "v5d")}


class TestV4:
    def test_several_cycles_found(self, analyses):
        # Paper: "several cycles leading to deadlocks were found.  Most of
        # these deadlocks involved the directory controller and the memory
        # controller at the home node."
        cycles = analyses["v4"].cycles()
        assert len(cycles) >= 2

    def test_cycles_involve_home_request_and_response_channels(self, analyses):
        involved = {vc for cycle in analyses["v4"].cycles() for vc in cycle}
        assert "VC0" in involved and "VC2" in involved


class TestV5:
    def test_figure4_cycle_found(self, analyses):
        # The VC2/VC4 dependency cycle of Figure 4.
        assert ("VC2", "VC4") in analyses["v5"].cycles()

    def test_composed_self_loops_match_paper(self, analyses):
        # "the row R3 ... is added ... Thus VCG contains a cycle involving
        # virtual channel VC4.  Similarly, by composing R2' with R1 a
        # cycle involving VC2 is added."
        cycles = analyses["v5"].cycles()
        assert ("VC4",) in cycles and ("VC2",) in cycles

    def test_r3_composition_witness(self, analyses):
        # The composed row (wbmem ... VC4 | mread ... VC4) — paper's R3.
        rows = [r for r in analyses["v5"].dependency_rows
                if r.derived == "composed" and r.edge() == ("VC4", "VC4")]
        assert rows
        assert any(r.in_msg == "wbmem" and r.out_msg == "mread" for r in rows)

    def test_direct_r1_r2_rows_present(self, analyses):
        rows = analyses["v5"].dependency_rows
        # R1: processing the writeback at memory requires a response slot.
        assert any(r.in_msg == "wbmem" and r.out_msg == "mdone"
                   and r.edge() == ("VC4", "VC2") and r.derived == "direct"
                   for r in rows)
        # R2: processing idone at the directory requires mread.
        assert any(r.in_msg == "idone" and r.out_msg == "mread"
                   and r.edge() == ("VC2", "VC4") and r.derived == "direct"
                   for r in rows)

    def test_scenario_report_names_the_messages(self, analyses):
        text = analyses["v5"].scenario(("VC2", "VC4"))
        assert "mread" in text and "VC4" in text

    def test_sql_cycle_detector_agrees(self, analyses):
        a = analyses["v5"]
        assert a.cyclic_channels() == cyclic_vertices_sql(a.vcg.edges) \
            == {"VC2", "VC4"}


class TestV5D:
    def test_dedicated_path_resolves_all_deadlocks(self, analyses):
        # "resolved by adding a dedicated hardware path from directory
        # controller to the home memory controller for mread requests."
        assert analyses["v5d"].is_deadlock_free()
        assert analyses["v5d"].cycles() == []

    def test_dedicated_channel_not_in_vcg(self, analyses):
        assert "PDM" not in analyses["v5d"].vcg.nodes

    def test_report_passes(self, analyses):
        assert analyses["v5d"].report().passed


class TestAnalysisOptions:
    # Comparisons of two analyses of the same assignment use distinct
    # table names: the SQL engine loads dependency rows lazily from the
    # analysis table, so a rerun under the same name would replace it.
    def test_placement_relaxation_adds_dependencies(self, system):
        exact_only = system.analyze_deadlocks(
            "v5", placements=(Placement.ALL_DISTINCT,), table_name="pdt_exact",
        )
        all_placements = system.analyze_deadlocks("v5", table_name="pdt_all")
        assert (len(all_placements.dependency_rows)
                > len(exact_only.dependency_rows))

    def test_message_matching_strictness(self, system):
        strict = system.analyze_deadlocks("v5", ignore_messages=False,
                                          table_name="pdt_strict")
        relaxed = system.analyze_deadlocks("v5", ignore_messages=True,
                                           table_name="pdt_relaxed")
        strict_edges = {r.edge() for r in strict.dependency_rows}
        relaxed_edges = {r.edge() for r in relaxed.dependency_rows}
        assert strict_edges < relaxed_edges

    def test_closure_no_better_than_pairwise_here(self, system):
        # Footnote 2: "in practice this was not needed as no dependencies
        # were found by composition" beyond one pairwise round — the
        # closure finds the same cyclic channels.
        pairwise = system.analyze_deadlocks("v5", table_name="pdt_pw5")
        closure = system.analyze_deadlocks("v5", closure=True,
                                           table_name="pdt_cl5")
        assert pairwise.cyclic_channels() == closure.cyclic_channels()

    def test_closure_generates_more_rows(self, system):
        pairwise = system.analyze_deadlocks("v4", table_name="pdt_pw4")
        closure = system.analyze_deadlocks("v4", closure=True,
                                           table_name="pdt_cl4")
        assert len(closure.dependency_rows) > len(pairwise.dependency_rows)
