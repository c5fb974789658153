"""End-to-end I/O (coherent DMA) transactions in the simulator."""

import random

import pytest

from repro.sim.system import SimConfig, Simulator


def make_sim(system, **kw):
    cfg = dict(n_quads=2, nodes_per_quad=2, default_capacity=2,
               home_map={"A": 0, "B": 1}, reissue_delay=5)
    cfg.update(kw)
    return Simulator(system, config=SimConfig(**cfg))


class TestUncachedIO:
    def test_io_read_of_idle_line(self, system):
        sim = make_sim(system)
        sim.inject_io(0, "io_read", "A")
        assert sim.run().status == "quiescent"
        assert sim.delivered[0] == [("io_data", "A")]

    def test_io_write_of_idle_line(self, system):
        sim = make_sim(system)
        sim.inject_io(1, "io_write", "A")
        assert sim.run().status == "quiescent"
        assert sim.delivered[1] == [("io_compl", "A")]
        home = sim.home_quad("A")
        assert sim.versions.get("A") == 1

    def test_interrupt_acknowledged_immediately(self, system):
        sim = make_sim(system)
        sim.inject_io(0, "dev_intr", "-")
        assert sim.run().status == "quiescent"
        assert sim.delivered[0] == [("intr_ack", "-")]

    def test_one_outstanding_io_per_controller(self, system):
        sim = make_sim(system)
        sim.inject_io(0, "io_read", "A")
        sim.inject_io(0, "io_read", "B")
        assert sim.run().status == "quiescent"
        assert [d[1] for d in sim.delivered[0]] == ["A", "B"]


class TestCoherentDMA:
    def test_dma_read_of_shared_line_preserves_sharers(self, system):
        sim = make_sim(system)
        sim.preset_line("B", "SI", {"node:0.0": "S", "node:1.0": "S"})
        sim.inject_io(0, "io_read", "B")
        assert sim.run().status == "quiescent"
        home = sim.home_quad("B")
        dirst, pv = sim.directory_line("B")
        assert dirst == "SI" and pv == {"node:0.0", "node:1.0"}
        assert sim.line("node:0.0", "B") == "S"

    def test_dma_read_of_owned_line_downgrades_owner(self, system):
        sim = make_sim(system)
        sim.preset_line("A", "MESI", {"node:1.1": "M"})
        sim.inject_io(0, "io_read", "A")
        assert sim.run().status == "quiescent"
        # The owner supplied the data, downgraded to S, and stays tracked.
        assert sim.line("node:1.1", "A") == "S"
        dirst, pv = sim.directory_line("A")
        assert dirst == "SI" and pv == {"node:1.1"}
        # The dirty data reached memory.
        assert sim.versions.get("A") == 1

    def test_dma_write_invalidates_all_sharers(self, system):
        sim = make_sim(system)
        sim.preset_line("B", "SI", {"node:0.0": "S", "node:1.0": "S"})
        sim.inject_io(1, "io_write", "B")
        assert sim.run().status == "quiescent"
        assert sim.line("node:0.0", "B") == "I"
        assert sim.line("node:1.0", "B") == "I"
        home = sim.home_quad("B")
        assert sim.directory_line("B") == ("I", set())
        assert sim.versions.get("B") == 1

    def test_dma_write_invalidates_owner(self, system):
        sim = make_sim(system)
        sim.preset_line("A", "MESI", {"node:1.1": "M"})
        sim.inject_io(0, "io_write", "A")
        assert sim.run().status == "quiescent"
        assert sim.line("node:1.1", "A") == "I"
        assert sim.directory_line("A") == ("I", set())

    def test_io_retried_while_line_busy(self, system):
        sim = make_sim(system)
        sim.preset_line("A", "MESI", {"node:1.1": "M"})
        # A processor transaction and a DMA write race for the same line.
        sim.inject_op("node:0.0", "st", "A")
        sim.inject_io(1, "io_write", "A")
        assert sim.run().status == "quiescent"
        sim.check_directory_agreement()
        # Whoever lost was retried and still completed.
        assert sim.delivered[1] == [("io_compl", "A")]


class TestMixedSoak:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_cpu_and_io_traffic(self, system, seed):
        sim = Simulator(system, config=SimConfig(
            n_quads=2, nodes_per_quad=2, default_capacity=2,
            home_map={f"L{i}": i % 2 for i in range(4)}, reissue_delay=6,
        ))
        rng = random.Random(seed)
        nodes = list(sim.node_ids)
        for _ in range(100):
            if rng.random() < 0.2:
                sim.inject_io(rng.randrange(2),
                              rng.choice(("io_read", "io_write")),
                              f"L{rng.randrange(4)}")
            else:
                sim.inject_op(rng.choice(nodes),
                              rng.choices(("ld", "st", "evict"), (5, 3, 1))[0],
                              f"L{rng.randrange(4)}")
        result = sim.run()
        assert result.status == "quiescent", result.deadlock_report
        sim.check_directory_agreement()

    def test_dma_write_data_not_lost_under_contention(self, system):
        sim = make_sim(system)
        sim.preset_line("A", "MESI", {"node:0.0": "M"})
        sim.inject_io(0, "io_write", "A")
        sim.inject_op("node:1.0", "ld", "A")
        assert sim.run().status == "quiescent"
        home = sim.home_quad("A")
        assert sim.versions.get("A", 0) >= 1
        sim.check_directory_agreement()
