"""The simulator: topology, scheduler, deadlock monitor, coherence checks.

The scheduler is conservative about channel resources, matching the
static model of section 4.1: an input message keeps occupying its channel
slot until the transition commits, and a transition commits only when
every output channel instance has space for every message it emits.  A
full pass with no progress and messages still in flight is a deadlock;
the monitor then extracts the channel wait-for cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.coverage import CoverageRecorder, CoverageReport, coverage_report
from ..analysis.cycles import cyclic_vertices
from ..core.deadlock import ChannelAssignment
from ..telemetry import get_tracer, span
from ..protocols import messages as M
from ..protocols.asura.system import AsuraSystem
from .channel import ChannelFabric, Envelope, VirtualChannelQueue
from .models import (
    DirectoryModel,
    IOModel,
    MemoryModel,
    NodeModel,
    SimProtocolError,
    TransitionPlan,
    quad_of,
)

__all__ = ["SimConfig", "SimResult", "Simulator", "CoherenceError", "TraceEvent"]


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
        # The models execute self.tables; injecting compiled KernelTables
        # here swaps the SQL lookup path for the dispatch kernels while
        # everything else (scheduler, fabric, commit rules) is shared —
        # the kernel-vs-simulator parity hook.
        self.tables = dict(tables) if tables is not None else system.tables
        self.channels: ChannelAssignment = system.channel_assignments[assignment]
        capacities = dict(self.config.capacities)
        # Invalidations multicast to every sharer in a quad in one
        # transition; the snoop channel is sized for that worst case, as
        # real designs size their invalidate buffers to the node count.
        capacities.setdefault(
            "VC1", max(self.config.default_capacity,
                       self.config.nodes_per_quad),
        )
        self.fabric = ChannelFabric(
            self.channels,
            default_capacity=self.config.default_capacity,
            capacities=capacities,
        )
        self.recorder = CoverageRecorder() if self.config.coverage else None
        self.directories = {
            q: DirectoryModel(q, self.tables["D"], recorder=self.recorder)
            for q in range(self.config.n_quads)
        }
        self.memories = {
            q: MemoryModel(q, self.tables["M"],
                           refresh_until=self.config.memory_refresh_until,
                           recorder=self.recorder)
            for q in range(self.config.n_quads)
        }
        self.nodes: dict[str, NodeModel] = {}
        for q in range(self.config.n_quads):
            for i in range(self.config.nodes_per_quad):
                nid = f"node:{q}.{i}"
                self.nodes[nid] = NodeModel(
                    nid, self.tables["C"], self.tables["N"],
                    reissue_delay=self.config.reissue_delay,
                    recorder=self.recorder,
                )
        self.ios = {
            q: IOModel(q, self.tables["IO"],
                       reissue_delay=self.config.reissue_delay,
                       recorder=self.recorder)
            for q in range(self.config.n_quads)
        }
        self.now = 0
        self.trace: list[TraceEvent] = []
        self.messages_delivered = 0
        self._blocked_edges: list[tuple[VirtualChannelQueue, VirtualChannelQueue]] = []
        # Resolved once: the hot paths check a single attribute per message.
        self._tracer = get_tracer()

    # -- setup ------------------------------------------------------------------
    def home_quad(self, addr: str) -> int:
        if addr in self.config.home_map:
            return self.config.home_map[addr]
        return sum(addr.encode()) % self.config.n_quads

    def preset_line(self, addr: str, dirst: str, sharers: dict[str, str]) -> None:
        """Install an initial coherent configuration: the directory entry
        at the home quad plus cache states at the sharing nodes."""
        home = self.home_quad(addr)
        self.directories[home].preset(addr, dirst, set(sharers))
        for nid, state in sharers.items():
            self.nodes[nid].preset(addr, state)

    def inject_op(self, node_id: str, op: str, addr: str) -> None:
        self.nodes[node_id].cpu_ops.append((op, addr))
        if self._tracer.enabled:
            self._tracer.emit("sim.op", kind="cpu", endpoint=node_id,
                              op=op, addr=addr)

    def inject_io(self, quad: int, op: str, addr: str) -> None:
        """Queue a device-initiated operation (io_read/io_write/dev_intr)
        at a quad's I/O controller."""
        self.ios[quad].dev_ops.append((op, addr))
        if self._tracer.enabled:
            self._tracer.emit("sim.op", kind="device", endpoint=f"io:{quad}",
                              op=op, addr=addr)

    # -- routing ---------------------------------------------------------------------
    def _resolve_dst(self, env: Envelope) -> Envelope:
        if env.dst == "dir:{home}":
            return Envelope(
                env.msg, env.src, f"dir:{self.home_quad(env.addr)}", env.addr,
                env.src_role, env.dst_role, env.seq,
            )
        return env

    def _queue_for(self, env: Envelope) -> VirtualChannelQueue:
        vc = self.fabric.channel_for(env.msg, env.src_role, env.dst_role)
        return self.fabric.queue(vc, quad_of(env.dst))

    # -- commit logic -------------------------------------------------------------------
    def _try_commit(
        self,
        plan: TransitionPlan,
        input_queue: Optional[VirtualChannelQueue],
    ) -> bool:
        """Atomically commit a transition if every output fits."""
        outs = [self._resolve_dst(e) for e in plan.outputs]
        need = Counter(self._queue_for(e).key for e in outs)
        queues = {self._queue_for(e).key: self._queue_for(e) for e in outs}
        blocked = [q for key, q in queues.items() if not q.can_accept(need[key])]
        if blocked:
            if input_queue is not None:
                for q in blocked:
                    self._blocked_edges.append((input_queue, q))
            return False
        if input_queue is not None:
            input_queue.pop()
        plan.apply()
        for e in outs:
            q = self._queue_for(e)
            q.push(e)
            self.trace.append(TraceEvent(
                self.now, e.seq, e.msg, e.src, e.dst, e.addr, q.name,
            ))
            if self._tracer.enabled:
                self._tracer.emit(
                    "sim.message", step=self.now, seq=e.seq, msg=e.msg,
                    src=e.src, dst=e.dst, addr=e.addr, channel=q.name,
                )
        return True

    def _plan_for(self, env: Envelope) -> Optional[TransitionPlan]:
        kind = env.dst.split(":", 1)[0]
        if kind == "dir":
            return self.directories[quad_of(env.dst)].plan(env)
        if kind == "mem":
            return self.memories[quad_of(env.dst)].plan(env, self.now)
        if kind == "node":
            return self.nodes[env.dst].plan(env, self.now)
        if kind == "io":
            return self.ios[quad_of(env.dst)].plan(env, self.now)
        raise SimProtocolError(f"unroutable destination {env.dst!r}")

    # -- the step loop -----------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduler pass; returns True if anything progressed."""
        progress = False
        self._blocked_edges.clear()

        # Processor side: re-issues first (they unblock the system), then
        # new processor and device operations.
        for node in self.nodes.values():
            plan = node.plan_reissue(self.now)
            if plan is not None and self._try_commit(plan, None):
                progress = True
        for io in self.ios.values():
            plan = io.plan_reissue(self.now)
            if plan is not None and self._try_commit(plan, None):
                progress = True
        for node in self.nodes.values():
            plan = node.plan_cpu()
            if plan is not None and self._try_commit(plan, None):
                progress = True
        for io in self.ios.values():
            plan = io.plan_dev()
            if plan is not None and self._try_commit(plan, None):
                progress = True

        # Network side: drain channel heads.  Response-class channels
        # first (the PE arbiter's response priority).
        queues = sorted(
            self.fabric.queues(),
            key=lambda q: (not self._is_response_queue(q), q.name, q.dst_quad),
        )
        for q in queues:
            env = q.head()
            if env is None:
                continue
            plan = self._plan_for(env)
            if plan is None:
                continue  # endpoint holds the message (memory refresh)
            if self._try_commit(plan, q):
                progress = True
                self.messages_delivered += 1

        self.now += 1
        if self.config.check_coherence:
            self.check_coherence()
        return progress

    @staticmethod
    def _is_response_queue(q: VirtualChannelQueue) -> bool:
        env = q.head()
        return env is not None and env.msg in M.RESPONSE_NAMES

    def _pending_reissues(self) -> list[int]:
        out = [
            reg.retry_at
            for n in self.nodes.values()
            for reg in (n.miss, n.wb)
            if reg.retry_at is not None
        ]
        out += [io.retry_at for io in self.ios.values()
                if io.retry_at is not None]
        return out

    def _pending_cpu_work(self) -> bool:
        return (any(n.cpu_ops for n in self.nodes.values())
                or any(io.dev_ops for io in self.ios.values()))

    def _wait_cycle(self) -> list:
        """A cycle in the channel wait-for graph of the last step, if any.

        Every vertex on a cycle has a successor on a cycle, so a walk
        from one along such successors must repeat a vertex; the walk
        from the first repeat onwards is a cycle.
        """
        edges = [(q1.key, q2.key) for q1, q2 in self._blocked_edges]
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
            wakeups = self._pending_reissues()
            wakeups += [
                m.refresh_until
                for m in self.memories.values()
                if self.now < m.refresh_until
            ]
            wakeups = [w for w in wakeups if w < limit]
            if wakeups:
                self.now = max(self.now, min(wakeups))
                continue
            if (self.fabric.pending_messages() or self._outstanding()
                    or self._pending_cpu_work()):
                return self._deadlock_result([])
            return self._result("quiescent")
        return self._result("maxsteps")

    def _outstanding(self) -> bool:
        return any(
            not reg.free
            for n in self.nodes.values()
            for reg in (n.miss, n.wb)
        ) or any(io.iost != "idle" for io in self.ios.values())

    # -- results & monitoring -----------------------------------------------------------
    def _result(self, status: str, **kw) -> SimResult:
        return SimResult(
            status=status,
            steps=self.now,
            messages=self.messages_delivered,
            trace=self.trace,
            node_stats={n: dict(m.stats) for n, m in self.nodes.items()},
            **kw,
        )

    def _deadlock_result(self, cycle: list) -> SimResult:
        lines = ["dynamic deadlock detected:"]
        for q in self.fabric.queues():
            if len(q):
                lines.append(f"  {q!r}: " + ", ".join(str(e) for e in q))
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
        """Single-writer/multiple-reader: never two owners of a line, and
        never an owner coexisting with shared copies.

        Family-aware: a forwarder state (MOESI ``O``, MESIF ``F``) counts
        as a shared copy — it may coexist with ``S`` holders but never
        with an exclusive owner, and a line has at most one forwarder.
        """
        spec = getattr(self.system, "spec", None)
        fwd = spec.forward_state if spec is not None else None
        holders: dict[str, list[tuple[str, str]]] = {}
        for nid, node in self.nodes.items():
            for addr, st in node.cache.items():
                holders.setdefault(addr, []).append((nid, st))
        for addr, hs in holders.items():
            owners = [nid for nid, st in hs if st in ("M", "E")]
            sharers = [nid for nid, st in hs
                       if st == "S" or (fwd is not None and st == fwd)]
            forwarders = [nid for nid, st in hs if st == fwd]
            if len(owners) > 1:
                raise CoherenceError(
                    f"line {addr}: multiple owners {owners} at step {self.now}"
                )
            if owners and sharers:
                raise CoherenceError(
                    f"line {addr}: owner {owners[0]} coexists with sharers "
                    f"{sharers} at step {self.now}"
                )
            if len(forwarders) > 1:
                raise CoherenceError(
                    f"line {addr}: multiple forwarders ({fwd}) "
                    f"{forwarders} at step {self.now}"
                )

    def check_directory_agreement(self) -> None:
        """At quiescence the directory must cover the caches.

        The presence vector may *overcount* (a node answering a snoop
        from its victim buffer stays tracked until the next invalidate —
        the standard conservative-directory property) but must never
        undercount, and ownership must be tracked exactly.
        """
        for addr in {a for n in self.nodes.values() for a in n.cache}:
            home = self.home_quad(addr)
            dirst, pv = self.directories[home].line_state(addr)
            cached = {
                nid for nid, n in self.nodes.items() if n.line(addr) != "I"
            }
            if not cached <= pv:
                raise CoherenceError(
                    f"line {addr}: directory pv {sorted(pv)} misses cached "
                    f"copies {sorted(cached - pv)}"
                )
            owners = [
                nid for nid, n in self.nodes.items() if n.line(addr) in ("M", "E")
            ]
            if owners and dirst != "MESI":
                raise CoherenceError(
                    f"line {addr}: owned by {owners} but directory says {dirst}"
                )
            if dirst == "MESI" and owners and set(owners) != pv:
                raise CoherenceError(
                    f"line {addr}: directory owner {sorted(pv)} != cache "
                    f"owner {owners}"
                )
