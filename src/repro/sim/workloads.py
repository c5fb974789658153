"""Workloads: the paper's directed scenarios plus random traffic.

* :func:`figure2_scenario` — the Read Exclusive transaction of Figure 2:
  a local store to a line cached shared at a remote node drives the
  sinv/mread/idone/data/compl message exchange.

* :func:`figure4_scenario` — the deadlock of Figure 4: interleaved
  writeback of B and read-exclusive of A, with local in one quad and both
  home and remote in the other (placement L != H = R), capacity-1
  channels, and memory timing that lets idone(A) occupy VC2 before the
  writeback is serviced.

* :func:`random_workload` — seeded random loads/stores/evictions for
  soak testing; the coherence checker runs every step.

* :func:`guided_workload` — coverage-guided traffic: reads the
  persisted row-coverage ledger (``__coverage_ledger``) out of the
  protocol database and synthesizes a seeded greedy/ε-random schedule
  biased toward controller tables with unvisited rows — including the
  device-initiated IO operations no fixed scenario issues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.coverage import CoverageRecorder, read_ledger
from ..protocols.asura.system import AsuraSystem
from ..telemetry import get_tracer
from .system import SimConfig, Simulator

__all__ = [
    "WorkloadOp",
    "Workload",
    "IO_OPS",
    "figure2_scenario",
    "figure4_scenario",
    "random_workload",
    "guided_workload",
    "ensure_recorder",
]

#: device-initiated operations; a :class:`WorkloadOp` carries them with
#: ``node="io:<quad>"`` and they enter through ``Simulator.inject_io``.
IO_OPS = ("io_read", "io_write", "dev_intr")


@dataclass(frozen=True)
class WorkloadOp:
    node: str  # node id, or "io:<quad>" for device-initiated ops
    op: str    # ld / st / evict / io_read / io_write / dev_intr
    addr: str


@dataclass
class Workload:
    """A prepared simulator plus the operations to inject."""

    simulator: Simulator
    ops: list[WorkloadOp] = field(default_factory=list)
    description: str = ""

    def inject_all(self) -> None:
        for op in self.ops:
            if op.op in IO_OPS:
                quad = int(op.node.split(":", 1)[1])
                self.simulator.inject_io(quad, op.op, op.addr)
            else:
                self.simulator.inject_op(op.node, op.op, op.addr)

    def run(self, max_steps: Optional[int] = None):
        self.inject_all()
        return self.simulator.run(max_steps)


def figure2_scenario(system: AsuraSystem, assignment: str = "v5d") -> Workload:
    """Figure 2: readex at D with the line cached SI at a remote node."""
    config = SimConfig(
        n_quads=2,
        nodes_per_quad=2,
        default_capacity=2,
        home_map={"X": 0},
    )
    sim = Simulator(system, assignment=assignment, config=config)
    # Line X homed at quad 0; node:0.1 (a remote node of the home quad)
    # holds it shared; node:1.0 is the local requester.
    sim.preset_line("X", "SI", {"node:0.1": "S"})
    return Workload(
        simulator=sim,
        ops=[WorkloadOp("node:1.0", "st", "X")],
        description="Figure 2: read-exclusive transaction at the directory",
    )


def figure4_scenario(system: AsuraSystem, assignment: str = "v5") -> Workload:
    """Figure 4: the VC2/VC4 deadlock (run with ``v5``), or its resolution
    (run with ``v5d``).

    Quad 1 is home for both lines; the local node is in quad 0 (placement
    L != H = R).  B is modified at local, A is modified at a remote node
    in the home quad.  Local issues wb(B) then readex(A); remote evicts A
    before the invalidate arrives; the DRAM bank refreshes long enough
    that idone(A) reaches VC2 while wbmem(B) still sits in VC4.
    """
    config = SimConfig(
        n_quads=2,
        nodes_per_quad=2,
        default_capacity=1,
        home_map={"A": 1, "B": 1},
        memory_refresh_until=6,
        # Retried requests must not wake the system up while we are
        # checking for the deadlock: back off beyond the step limit.
        reissue_delay=10**6,
    )
    sim = Simulator(system, assignment=assignment, config=config)
    local, remote = "node:0.0", "node:1.1"
    sim.preset_line("B", "MESI", {local: "M"})
    # A is clean-exclusive at the remote node: its eviction is a flush
    # that gets cancelled when the invalidate snoops the victim buffer,
    # so the snoop reply is the idone of the paper's scenario and D must
    # fetch the data from memory with mread — the R2 dependency.
    sim.preset_line("A", "MESI", {remote: "E"})
    return Workload(
        simulator=sim,
        ops=[
            WorkloadOp(local, "evict", "B"),   # -> wb(B)
            WorkloadOp(local, "st", "A"),      # -> readex(A) after wb completes?
            WorkloadOp(remote, "evict", "A"),  # -> wb(A), retried; line leaves cache
        ],
        description="Figure 4: interleaved wb(B)/readex(A) deadlock",
    )


def random_workload(
    system: AsuraSystem,
    assignment: str = "v5d",
    n_quads: int = 2,
    nodes_per_quad: int = 2,
    n_lines: int = 4,
    n_ops: int = 60,
    seed: int = 0,
    capacity: int = 2,
) -> Workload:
    """Seeded random traffic over a small line set (maximizing conflict)."""
    rng = random.Random(seed)
    config = SimConfig(
        n_quads=n_quads,
        nodes_per_quad=nodes_per_quad,
        default_capacity=capacity,
        home_map={f"L{i}": i % n_quads for i in range(n_lines)},
        reissue_delay=6,
    )
    sim = Simulator(system, assignment=assignment, config=config)
    nodes = list(sim.node_ids)
    addrs = [f"L{i}" for i in range(n_lines)]
    ops = []
    for _ in range(n_ops):
        node = rng.choice(nodes)
        addr = rng.choice(addrs)
        op = rng.choices(("ld", "st", "evict"), weights=(5, 3, 1))[0]
        ops.append(WorkloadOp(node, op, addr))
    return Workload(
        simulator=sim,
        ops=ops,
        description=f"random workload (seed={seed}, {n_ops} ops)",
    )


#: controller tables each operation kind can exercise (primary first).
#: The map drives the greedy policy: an op kind scores by how much of
#: its tables is still uncovered, so once the processor-side rows are
#: exhausted the generator pivots to the device-initiated transactions
#: that no fixed scenario or random CPU workload ever issues.
_OP_TABLES: dict[str, tuple[str, ...]] = {
    "ld": ("C", "N", "D", "M"),
    "st": ("C", "N", "D", "M"),
    "evict": ("N", "D", "M", "C"),
    "io_read": ("IO", "D", "M"),
    "io_write": ("IO", "D", "M"),
    "dev_intr": ("IO", "N"),
}

#: score weight of an op kind's primary vs secondary tables.
_PRIMARY_WEIGHT, _SECONDARY_WEIGHT = 1.0, 0.35

#: per-pick attenuation of a table's uncovered estimate — the policy
#: assumes each injected op will cover some of the rows it targets, so
#: repeated greedy picks of one kind decay toward the alternatives.
_PRIMARY_DECAY, _SECONDARY_DECAY = 0.90, 0.985


def ensure_recorder(sim: Simulator) -> CoverageRecorder:
    """Attach a coverage recorder to an already-built simulator (coverage
    is normally decided at construction)."""
    if sim.recorder is None:
        sim.recorder = CoverageRecorder()
        sim.config.coverage = True
    return sim.recorder


def guided_workload(
    system: AsuraSystem,
    assignment: str = "v5d",
    n_quads: int = 2,
    nodes_per_quad: int = 2,
    n_lines: int = 4,
    n_ops: int = 60,
    seed: int = 0,
    capacity: int = 2,
    epsilon: float = 0.2,
    ledger: Optional[CoverageRecorder] = None,
) -> Workload:
    """Coverage-guided traffic: ops biased toward unvisited table rows.

    The generator reads the row-coverage ledger persisted in the
    protocol database (``ledger=None``; pass a recorder to override),
    estimates the uncovered fraction of each controller table, and emits
    a seeded schedule: with probability ``epsilon`` a uniformly random
    op kind (exploration), otherwise the kind whose tables hold the most
    unvisited rows (greedy), decaying the estimate as picks accumulate.
    Device-initiated IO transactions participate on equal footing with
    processor ops — the coverage gap every fixed scenario leaves open.
    """
    rng = random.Random(seed)
    if ledger is None:
        ledger = read_ledger(system.db)

    config = SimConfig(
        n_quads=n_quads,
        nodes_per_quad=nodes_per_quad,
        default_capacity=capacity,
        home_map={f"L{i}": i % n_quads for i in range(n_lines)},
        reissue_delay=6,
    )
    sim = Simulator(system, assignment=assignment, config=config)
    ensure_recorder(sim)

    nodes = sorted(sim.node_ids)
    addrs = list(config.home_map)
    quads = list(range(sim.config.n_quads))
    kinds = list(_OP_TABLES)

    # Uncovered-fraction estimate per controller table, from the ledger.
    frac: dict[str, float] = {}
    for name in ("D", "M", "C", "N", "IO"):
        table = system.tables.get(name)
        if table is None:
            frac[name] = 0.0
            continue
        total = table.row_count
        covered = len(ledger.hits.get(name, ()))
        frac[name] = max(0.0, (total - covered) / total) if total else 0.0

    def score(kind: str) -> float:
        tables = _OP_TABLES[kind]
        s = _PRIMARY_WEIGHT * frac.get(tables[0], 0.0)
        for t in tables[1:]:
            s += _SECONDARY_WEIGHT * frac.get(t, 0.0)
        return s

    ops: list[WorkloadOp] = []
    prev_addr: Optional[str] = None
    for _ in range(n_ops):
        if rng.random() < epsilon:
            kind = rng.choice(kinds)
        else:
            best = max(score(k) for k in kinds)
            kind = rng.choice([k for k in kinds
                               if score(k) >= best - 1e-9])
        tables = _OP_TABLES[kind]
        frac[tables[0]] = frac.get(tables[0], 0.0) * _PRIMARY_DECAY
        for t in tables[1:]:
            frac[t] = frac.get(t, 0.0) * _SECONDARY_DECAY
        # Conflict bias: half the time revisit the previous line so
        # invalidation/forwarding rows get exercised, not just misses.
        if prev_addr is not None and rng.random() < 0.5:
            addr = prev_addr
        else:
            addr = rng.choice(addrs)
        prev_addr = addr
        if kind in IO_OPS:
            ops.append(WorkloadOp(f"io:{rng.choice(quads)}", kind, addr))
        else:
            ops.append(WorkloadOp(rng.choice(nodes), kind, addr))

    get_tracer().incr("coverage.guided.ops", len(ops))
    return Workload(
        simulator=sim,
        ops=ops,
        description=(f"guided workload (seed={seed}, {n_ops} ops, "
                     f"epsilon={epsilon}, from reset state)"),
    )
