"""Tests for the assembled 8-controller system."""

from repro.analysis.stats import collect


class TestAssembly:
    def test_eight_controller_tables(self, system):
        # Paper section 6: "A total of 8 controller database tables were
        # automatically generated."
        assert len(system.tables) == 8
        assert set(system.tables) == {"D", "M", "C", "N", "RAC", "IO",
                                      "NI", "PE"}

    def test_all_tables_nonempty(self, system):
        for name, t in system.tables.items():
            assert t.row_count > 0, name

    def test_generation_results_recorded(self, system):
        for name in system.tables:
            assert system.generation_results[name].strategy == "incremental"

    def test_directory_accessor(self, system):
        assert system.directory is system.tables["D"]

    def test_deadlock_specs_cover_network_controllers(self, system):
        names = {s.name for s in system.deadlock_specs()}
        assert names == {"D", "M", "N", "IO"}

    def test_three_channel_assignments(self, system):
        assert set(system.channel_assignments) == {"v4", "v5", "v5d"}


class TestStats:
    def test_stats_keys(self, system):
        st = system.stats()
        assert st["controllers"] == 8
        assert st["directory_columns"] == 31
        assert st["total_rows"] > 250

    def test_collect_paper_comparison(self, system):
        stats = collect(system)
        rows = dict(
            (q, (paper, ours)) for q, paper, ours in stats.paper_comparison()
        )
        assert rows["controller tables"] == ("8", "8")
        assert int(rows["directory table rows"][1]) == system.tables["D"].row_count

    def test_input_space_vastly_exceeds_rows(self, system):
        # The sparsity that makes constraints the right representation.
        stats = collect(system)
        assert stats.directory_input_space > 100 * stats.directory_rows
