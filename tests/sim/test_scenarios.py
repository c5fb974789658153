"""End-to-end simulator scenarios: Figures 2 and 4, and quiescence."""

import pytest

from repro.sim import figure2_scenario, figure4_scenario
from repro.sim.system import SimConfig, Simulator


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self, system):
        workload = figure2_scenario(system)
        res = workload.run()
        return workload, res

    def test_completes(self, result):
        _, res = result
        assert res.status == "quiescent"

    def test_message_sequence_matches_figure(self, result):
        _, res = result
        msgs = [t.msg for t in res.trace]
        # readex -> sinv (+ mread) -> idone/data -> data+compl back.
        assert msgs[0] == "readex"
        assert "sinv" in msgs and "mread" in msgs
        assert "idone" in msgs and "data" in msgs
        # The requester acknowledges the grant (section 4.3's compl).
        assert msgs.count("compl") >= 1

    def test_snoop_precedes_invalidate_ack(self, result):
        _, res = result
        order = {t.msg: i for i, t in enumerate(res.trace)}
        assert order["sinv"] < order["idone"]

    def test_ownership_transferred(self, result):
        workload, _ = result
        sim = workload.simulator
        home = sim.home_quad("X")
        dirst, pv = sim.directory_line("X")
        assert dirst == "MESI" and pv == {"node:1.0"}
        assert sim.line("node:1.0", "X") == "M"
        assert sim.line("node:0.1", "X") == "I"

    def test_directory_agrees_with_caches(self, result):
        workload, _ = result
        workload.simulator.check_directory_agreement()


class TestFigure4:
    def test_v5_deadlocks_on_vc2_vc4(self, system):
        res = figure4_scenario(system, "v5").run()
        assert res.status == "deadlock"
        assert set(res.deadlock_cycle) == {("VC2", 1), ("VC4", 1)}

    def test_v5_deadlock_report_names_messages(self, system):
        res = figure4_scenario(system, "v5").run()
        assert "wbmem(B)" in res.deadlock_report
        assert "idone(A)" in res.deadlock_report

    def test_v5d_dedicated_path_completes(self, system):
        workload = figure4_scenario(system, "v5d")
        res = workload.run()
        assert res.status == "quiescent"
        workload.simulator.check_directory_agreement()

    def test_v5d_both_transactions_finished(self, system):
        workload = figure4_scenario(system, "v5d")
        workload.run()
        sim = workload.simulator
        # B written back (directory idle), A owned by the local node.
        assert sim.directory_line("B") == ("I", set())
        dirst, pv = sim.directory_line("A")
        assert dirst == "MESI" and pv == {"node:0.0"}

    def test_v4_shared_request_channel_also_deadlocks(self, system):
        # The initial four-channel assignment self-blocks on VC0.
        res = figure4_scenario(system, "v4").run()
        assert res.status in ("deadlock", "maxsteps")
        assert res.status == "deadlock"


class TestQuiescence:
    def test_empty_workload_is_quiescent(self, system):
        sim = Simulator(system, config=SimConfig(n_quads=1, nodes_per_quad=1))
        res = sim.run()
        assert res.status == "quiescent" and res.steps <= 1

    def test_single_load(self, system):
        sim = Simulator(system, config=SimConfig(n_quads=1, nodes_per_quad=1,
                                                 home_map={"A": 0}))
        sim.inject_op("node:0.0", "ld", "A")
        res = sim.run()
        assert res.status == "quiescent"
        assert sim.line("node:0.0", "A") == "S"

    def test_store_then_load_hits(self, system):
        sim = Simulator(system, config=SimConfig(n_quads=1, nodes_per_quad=1,
                                                 home_map={"A": 0}))
        sim.inject_op("node:0.0", "st", "A")
        sim.inject_op("node:0.0", "ld", "A")
        res = sim.run()
        assert res.status == "quiescent"
        assert sim.line("node:0.0", "A") == "M"

    def test_two_nodes_contend_for_same_line(self, system):
        sim = Simulator(system, config=SimConfig(n_quads=1, nodes_per_quad=2,
                                                 home_map={"A": 0},
                                                 reissue_delay=4))
        sim.inject_op("node:0.0", "st", "A")
        sim.inject_op("node:0.1", "st", "A")
        res = sim.run()
        assert res.status == "quiescent"
        owners = [n for n in sim.node_ids if sim.line(n, "A") == "M"]
        assert len(owners) == 1
        sim.check_directory_agreement()
