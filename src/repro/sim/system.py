"""The simulator: topology, scheduler, timing, deadlock monitor.

The simulator owns one state tuple and advances it only through
:func:`~repro.sim.models.step`, the transition relation the explorer
enumerates.  Around it the simulator adds what a timed run needs and
the relation leaves out: a scheduler that tries every move once per
pass (re-issues, then processor and device operations, then channel
heads with responses first), retry deadlines behind the state's retry
bits, the memory refresh window, and its observations — message trace,
sequence numbers, coverage rows, memory versions and statistics — read
off each step's effects.

The scheduler is conservative about channel resources, matching the
static model of section 4.1: an input message keeps occupying its channel
slot until the transition commits, and a transition commits only when
every output channel instance has space for every message it emits.  A
full pass with no progress and messages still in flight is a deadlock;
the monitor then extracts the channel wait-for cycle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.coverage import CoverageRecorder, CoverageReport, coverage_report
from ..analysis.cycles import cyclic_vertices
from ..core.assignment import ChannelAssignment
from ..telemetry import get_tracer, span
from ..protocols import messages as M
from ..protocols.asura.system import AsuraSystem
from .channel import ChannelFabric
from .models import (
    Network,
    cache_line,
    coherence_violation,
    dir_line,
    directory_violation,
    initial_state,
    pending_work,
    preset_line,
    queue_dev,
    queue_op,
    step,
)

__all__ = ["SimConfig", "SimResult", "Simulator", "CoherenceError", "TraceEvent"]

#: per-node statistics reported in :attr:`SimResult.node_stats`.
NODE_STATS = ("ops", "hits", "misses", "retries", "snoops", "writebacks")


class CoherenceError(AssertionError):
    """The single-writer/multiple-reader property was violated."""


@dataclass
class TraceEvent:
    """One message transfer, for Figure-2-style renderings."""

    step: int
    seq: int
    msg: str
    src: str
    dst: str
    addr: str
    channel: str

    def __str__(self) -> str:
        return (f"[{self.step:4d}] {self.msg}({self.addr}) "
                f"{self.src} -> {self.dst} on {self.channel}")


@dataclass
class SimConfig:
    """Topology and resource parameters."""

    n_quads: int = 2
    nodes_per_quad: int = 2
    default_capacity: int = 1
    capacities: dict = field(default_factory=dict)
    reissue_delay: int = 8
    memory_refresh_until: int = 0
    #: addr -> home quad; addresses default to quad hash(addr) % n_quads
    home_map: dict = field(default_factory=dict)
    max_steps: int = 10_000
    check_coherence: bool = True
    #: record which controller-table rows fire (transition coverage)
    coverage: bool = False

    def network(self, channels: ChannelAssignment, node_ids) -> Network:
        """The routing a step needs for this topology under ``channels``."""
        capacities = dict(self.capacities)
        # Invalidations multicast to every sharer in a quad in one
        # transition; the snoop channel is sized for that worst case, as
        # real designs size their invalidate buffers to the node count.
        capacities.setdefault(
            "VC1", max(self.default_capacity, self.nodes_per_quad))
        fabric = ChannelFabric(channels, default_capacity=self.default_capacity,
                               capacities=capacities)
        return Network(fabric, self.n_quads, node_ids, self.home_map)


@dataclass
class SimResult:
    status: str  # 'quiescent' | 'deadlock' | 'maxsteps'
    steps: int
    messages: int
    trace: list
    deadlock_cycle: list = field(default_factory=list)
    deadlock_report: str = ""
    node_stats: dict = field(default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return self.status == "deadlock"


class Simulator:
    """Executes the generated ASURA tables over a quad topology."""

    def __init__(
        self,
        system: AsuraSystem,
        assignment: str = "v5d",
        config: Optional[SimConfig] = None,
        *,
        tables: Optional[dict] = None,
    ) -> None:
        self.system = system
        self.config = config or SimConfig()
        # Steps look rows up in self.tables: the system's compiled
        # kernels, shared with every simulator and explorer over the
        # same table state.  ``tables`` hands the steps another mapping
        # instead — the parity tests pass the SQL-backed tables.
        self.tables = (dict(tables) if tables is not None
                       else system.kernels())
        self.channels: ChannelAssignment = system.channel_assignments[assignment]
        self.node_ids = tuple(
            f"node:{q}.{i}"
            for q in range(self.config.n_quads)
            for i in range(self.config.nodes_per_quad)
        )
        self.quads = range(self.config.n_quads)
        self.net = self.config.network(self.channels, self.node_ids)
        #: the control state: the only thing a step reads or writes.
        self.state = initial_state(self.node_ids, self.config.n_quads)
        self.recorder = CoverageRecorder() if self.config.coverage else None
        self.now = 0
        self.trace: list[TraceEvent] = []
        self.messages_delivered = 0
        #: line -> number of memory writes.
        self.versions: dict[str, int] = {}
        #: quad -> (devmsg, addr) completions handed to its device.
        self.delivered: dict[int, list] = {q: [] for q in self.quads}
        #: endpoint -> statistic -> count.
        self.stats: dict[str, Counter] = {}
        # (endpoint, register) -> step at which its retry is due; read
        # only while the state's retry bit for that register is set.
        self._retry_at: dict[tuple, int] = {}
        # Every channel instance a transition has tried to send on: the
        # scheduler's delivery order ranges over these.
        self._channels_seen: set = set()
        self._blocked_edges: list[tuple[tuple, tuple]] = []
        self._seq = itertools.count(1)
        # Resolved once: the hot paths check a single attribute per message.
        self._tracer = get_tracer()

    # -- setup and queries ---------------------------------------------------------
    def home_quad(self, addr: str) -> int:
        return self.net.home(addr)

    def preset_line(self, addr: str, dirst: str, sharers: dict[str, str]) -> None:
        """Install an initial coherent configuration: the directory entry
        at the home quad plus cache states at the sharing nodes."""
        self.state = preset_line(self.state, self.net, addr, dirst, sharers)

    def inject_op(self, node_id: str, op: str, addr: str) -> None:
        self.state = queue_op(self.state, self.net.node_pos[node_id], op, addr)
        if self._tracer.enabled:
            self._tracer.emit("sim.op", kind="cpu", endpoint=node_id,
                              op=op, addr=addr)

    def inject_io(self, quad: int, op: str, addr: str) -> None:
        """Queue a device-initiated operation (io_read/io_write/dev_intr)
        at a quad's I/O controller."""
        self.state = queue_dev(self.state, quad, op, addr)
        if self._tracer.enabled:
            self._tracer.emit("sim.op", kind="device", endpoint=f"io:{quad}",
                              op=op, addr=addr)

    def line(self, node_id: str, addr: str) -> str:
        """A node's cache state for a line."""
        return cache_line(self.state, self.net, node_id, addr)

    def directory_line(self, addr: str) -> tuple[str, set]:
        """The home directory's entry for a line: ``(state, sharers)``."""
        return dir_line(self.state, self.home_quad(addr), addr)

    # -- firing moves ------------------------------------------------------------------
    def _take(self, move: tuple) -> bool:
        """Step the state through one move and observe its effects; True
        iff it committed."""
        succ, fx = step(self.state, move, self.tables, self.net,
                        self.now < self.config.memory_refresh_until)
        if self.recorder is not None:
            for table, rowid in fx.rows:
                self.recorder.record(table, rowid)
        for endpoint, name in fx.counts:
            self.stats.setdefault(endpoint, Counter())[name] += 1
        self._channels_seen.update(send[4] for send in fx.sends)
        if succ is None:
            if move[0] == "deliver":
                held = (move[1], move[2])
                self._blocked_edges.extend((held, key) for key in fx.blocked)
            return False
        self.state = succ
        if fx.retry is not None:
            self._retry_at[fx.retry] = self.now + self.config.reissue_delay
        if fx.written is not None:
            self.versions[fx.written] = self.versions.get(fx.written, 0) + 1
        if fx.device is not None:
            quad, devmsg, addr = fx.device
            self.delivered[quad].append((devmsg, addr))
        for msg, src, dst, addr, (vc, _) in fx.sends:
            seq = next(self._seq)
            self.trace.append(TraceEvent(self.now, seq, msg, src, dst, addr,
                                         vc))
            if self._tracer.enabled:
                self._tracer.emit(
                    "sim.message", step=self.now, seq=seq, msg=msg,
                    src=src, dst=dst, addr=addr, channel=vc,
                )
        return True

    def _retries(self):
        """``(endpoint, register)`` of every set retry bit."""
        for nid, cache, miss, wb, cpu_ops in self.state[2]:
            for idx, reg in enumerate((miss, wb)):
                if reg[4]:
                    yield (nid, idx)
        for quad, iost, pend_op, pend_addr, retry, dev_ops in self.state[3]:
            if retry:
                yield (f"io:{quad}", 0)

    # -- the step loop -----------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduler pass; returns True if anything progressed."""
        progress = False
        self._blocked_edges.clear()

        # Processor side: re-issues first (they unblock the system), then
        # new processor and device operations.  A node re-issues its
        # first register whose backoff has expired.
        due = {}
        for reg in self._retries():
            if self._retry_at[reg] <= self.now:
                due.setdefault(reg[0], reg[1])
        for nid in self.node_ids:
            if nid in due and self._take(("reissue", nid, due[nid])):
                progress = True
        for quad in self.quads:
            if f"io:{quad}" in due and self._take(("reissue_io", quad)):
                progress = True
        for nid in self.node_ids:
            if self._take(("cpu", nid)):
                progress = True
        for quad in self.quads:
            if self._take(("dev", quad)):
                progress = True

        # Network side: drain channel heads.  Response-class channels
        # first (the PE arbiter's response priority).
        heads = {key: envs[0][0] for key, envs in self.state[0]}
        order = sorted(
            self._channels_seen,
            key=lambda key: (heads.get(key) not in M.RESPONSE_NAMES, key),
        )
        for key in order:
            if self._take(("deliver",) + key):
                progress = True
                self.messages_delivered += 1

        self.now += 1
        if self.config.check_coherence:
            self.check_coherence()
        return progress

    def _wait_cycle(self) -> list:
        """A cycle in the channel wait-for graph of the last step, if any.

        Every vertex on a cycle has a successor on a cycle, so a walk
        from one along such successors must repeat a vertex; the walk
        from the first repeat onwards is a cycle.
        """
        edges = self._blocked_edges
        cyclic = cyclic_vertices(edges)
        if not cyclic:
            return []
        succ: dict = {}
        for a, b in edges:
            if a in cyclic and b in cyclic:
                succ.setdefault(a, b)
        v, walk = next(iter(succ)), []
        while v not in walk:
            walk.append(v)
            v = succ[v]
        return walk[walk.index(v):]

    def run(self, max_steps: Optional[int] = None) -> SimResult:
        """Run to quiescence, deadlock, or the step limit."""
        with span("sim.run", assignment=self.channels.name,
                  quads=self.config.n_quads):
            result = self._run(max_steps)
        if self._tracer.enabled:
            self._tracer.incr("sim.messages_delivered",
                              self.messages_delivered)
            self._tracer.incr("sim.steps", result.steps)
            self._tracer.incr(f"sim.runs.{result.status}")
            self._tracer.emit("sim.result", status=result.status,
                              steps=result.steps, messages=result.messages)
        return result

    def _run(self, max_steps: Optional[int] = None) -> SimResult:
        limit = max_steps or self.config.max_steps
        while self.now < limit:
            progress = self.step()
            if progress:
                continue
            # A cycle among full channels can never drain in this model:
            # genuine deadlock, no timer can rescue it.
            cycle = self._wait_cycle()
            if cycle:
                return self._deadlock_result(cycle)
            # Otherwise idle until the next timer (retry backoff, DRAM
            # refresh end) — that is latency, not deadlock.
            wakeups = [self._retry_at[reg] for reg in self._retries()]
            if self.now < self.config.memory_refresh_until:
                wakeups.append(self.config.memory_refresh_until)
            wakeups = [w for w in wakeups if w < limit]
            if wakeups:
                self.now = max(self.now, min(wakeups))
                continue
            if pending_work(self.state):
                return self._deadlock_result([])
            return self._result("quiescent")
        return self._result("maxsteps")

    # -- results & monitoring -----------------------------------------------------------
    def _result(self, status: str, **kw) -> SimResult:
        return SimResult(
            status=status,
            steps=self.now,
            messages=self.messages_delivered,
            trace=self.trace,
            node_stats={
                nid: {k: self.stats.get(nid, {}).get(k, 0) for k in NODE_STATS}
                for nid in self.node_ids
            },
            **kw,
        )

    def _deadlock_result(self, cycle: list) -> SimResult:
        lines = ["dynamic deadlock detected:"]
        for (vc, dq), envs in self.state[0]:
            cap = self.net.fabric.capacity(vc)
            lines.append(
                f"  VC({vc}->q{dq}, {len(envs)}/"
                f"{'inf' if cap is None else cap}): "
                + ", ".join(f"{m}({a}) {s}->{d}" for m, s, d, a, *_ in envs))
        if cycle:
            lines.append(
                "  wait cycle: " + " -> ".join(f"{vc}@q{qd}" for vc, qd in cycle)
            )
        return self._result(
            "deadlock",
            deadlock_cycle=cycle,
            deadlock_report="\n".join(lines),
        )

    # -- coverage ----------------------------------------------------------------------------
    def coverage_report(self) -> CoverageReport:
        """Transition coverage over the simulated controller tables
        (requires ``SimConfig(coverage=True)``)."""
        if self.recorder is None:
            raise RuntimeError(
                "coverage recording is off; construct with "
                "SimConfig(coverage=True)"
            )
        simulated = {
            name: self.system.tables[name]
            for name in ("D", "M", "C", "N", "IO")
        }
        return coverage_report(self.recorder, simulated)

    # -- coherence ---------------------------------------------------------------------------
    def check_coherence(self) -> None:
        """Raise :class:`CoherenceError` on a single-writer/multiple-reader
        violation (:func:`~repro.sim.models.coherence_violation`)."""
        spec = getattr(self.system, "spec", None)
        violation = coherence_violation(
            self.state, spec.forward_state if spec is not None else None)
        if violation is not None:
            raise CoherenceError(f"{violation} at step {self.now}")

    def check_directory_agreement(self) -> None:
        """Raise :class:`CoherenceError` if the directories disagree with
        the caches (:func:`~repro.sim.models.directory_violation`); for a
        run that reached quiescence."""
        violation = directory_violation(self.state, self.home_quad)
        if violation is not None:
            raise CoherenceError(violation)
