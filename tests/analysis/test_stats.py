"""Tests for protocol statistics collection."""

from repro.analysis.stats import collect


class TestCollect:
    def test_controller_count(self, system):
        assert collect(system).controllers == 8

    def test_directory_shape(self, system):
        stats = collect(system)
        assert stats.directory_columns == 31
        assert stats.directory_rows == system.tables["D"].row_count

    def test_busy_states_counted(self, system):
        assert collect(system).busy_states == 20

    def test_message_partition(self, system):
        stats = collect(system)
        assert stats.request_types + stats.response_types < stats.message_types

    def test_input_space(self, system):
        stats = collect(system)
        d = system.tables["D"]
        assert stats.directory_input_space == d.schema.cross_product_size(
            d.schema.input_names
        )

    def test_paper_comparison_rows(self, system):
        rows = collect(system).paper_comparison()
        quantities = [q for q, _, _ in rows]
        assert "controller tables" in quantities
        assert "busy states" in quantities
        assert all(ours for _, _, ours in rows)

    def test_per_table_totals_consistent(self, system):
        stats = collect(system)
        assert stats.total_rows == sum(
            s.n_rows for s in stats.per_table.values()
        )
        assert stats.total_columns == sum(
            s.n_columns for s in stats.per_table.values()
        )
