"""Tests for the workload builders themselves."""

import pytest

from repro.sim import (
    Workload,
    WorkloadOp,
    figure2_scenario,
    figure4_scenario,
    random_workload,
)


class TestFigure2Setup:
    def test_initial_configuration(self, system):
        w = figure2_scenario(system)
        sim = w.simulator
        assert sim.home_quad("X") == 0
        assert sim.directory_line("X") == ("SI", {"node:0.1"})
        assert sim.line("node:0.1", "X") == "S"

    def test_single_store_op(self, system):
        w = figure2_scenario(system)
        assert w.ops == [WorkloadOp("node:1.0", "st", "X")]


class TestFigure4Setup:
    def test_placement_is_l_ne_h_eq_r(self, system):
        """Local in quad 0; home and remote share quad 1 — the quad
        placement of the paper's scenario."""
        w = figure4_scenario(system)
        sim = w.simulator
        assert sim.home_quad("A") == 1 and sim.home_quad("B") == 1
        nodes = {op.node for op in w.ops}
        assert "node:0.0" in nodes          # local, quad 0
        assert "node:1.1" in nodes          # remote, quad 1 (= home quad)

    def test_capacity_one_channels(self, system):
        w = figure4_scenario(system)
        assert w.simulator.config.default_capacity == 1

    def test_memory_refresh_window(self, system):
        # The DRAM refresh is what lets idone(A) occupy VC2 before the
        # writeback is serviced — without it the schedule would slip past
        # the deadlock window.
        w = figure4_scenario(system)
        assert w.simulator.config.memory_refresh_until > 0

    def test_preset_states(self, system):
        sim = figure4_scenario(system).simulator
        assert sim.line("node:0.0", "B") == "M"
        assert sim.line("node:1.1", "A") == "E"  # clean-exclusive


class TestRandomWorkload:
    def test_deterministic_per_seed(self, system):
        a = random_workload(system, seed=9, n_ops=30)
        b = random_workload(system, seed=9, n_ops=30)
        assert a.ops == b.ops

    def test_different_seeds_differ(self, system):
        a = random_workload(system, seed=1, n_ops=30)
        b = random_workload(system, seed=2, n_ops=30)
        assert a.ops != b.ops

    def test_respects_topology(self, system):
        w = random_workload(system, seed=0, n_quads=3, nodes_per_quad=3,
                            n_ops=30)
        assert len(w.simulator.node_ids) == 9
        assert all(op.node in w.simulator.node_ids for op in w.ops)

    def test_addresses_spread_over_homes(self, system):
        w = random_workload(system, seed=0, n_lines=4, n_ops=50)
        homes = {w.simulator.home_quad(f"L{i}") for i in range(4)}
        assert len(homes) > 1

    def test_inject_all_idempotent_guard(self, system):
        w = random_workload(system, seed=0, n_ops=10)
        w.inject_all()
        total = sum(len(n[4]) for n in w.simulator.state[2])
        assert total == 10
