"""Bounded-depth exhaustive reachability exploration of the tables.

The simulator replays *one* interleaving of a workload; the explorer
enumerates *every* interleaving a small open system can produce, up to a
depth bound.  A state (see :mod:`repro.explore.state`) is expanded by
firing each enabled atomic move — delivering one channel head, advancing
one processor operation, re-issuing one retried transaction, or
*injecting* a fresh ``ld``/``st``/``evict`` at any node — through
:func:`~repro.sim.models.step`, the transition relation the simulator
also runs, so a transition exists here iff the generated controller
tables contain its row.

Exploration is breadth-first and depth-synchronized: the frontier of
depth *d* is fully expanded, inline in one process, before depth *d+1*
begins; successors are merged in frontier and move order, and
deduplication runs on the canonical (symmetry-reduced) state tuples.
The seen-set, predecessor links and frontier hold those tuples; a state is
hashed only when something names it (a violation, a journal record,
:meth:`ReachabilityExplorer.trace_to`), and its SHA-256 digest is that
name.  Every *new* state is checked on the fly:

* **coherence** — the single-writer/multiple-reader property over all
  cache states (:func:`~repro.sim.models.coherence_violation`, which
  the simulator checks every pass);
* **directory** at quiescent states — the directory covers the caches
  and the busy directory is empty
  (:func:`~repro.sim.models.directory_violation`);
* **hole** — a reachable message with no matching table row
  (:class:`~repro.sim.models.SimProtocolError` and friends);
* **deadlock** — a state with pending work (messages in flight,
  outstanding transactions, queued operations) where no non-inject move
  can commit: nothing already started can ever finish.

Each violating state carries a predecessor chain back to the initial
state; :meth:`ReachabilityExplorer.replay` re-executes that chain step
by step and returns the message :class:`TraceEvent` list, rendered
as a paper-style sequence chart by :func:`repro.sim.trace.render_sequence`.

Long runs checkpoint one journal record per completed depth
(``--journal``) and resume exactly after the last completed depth, even
with a larger ``--depth``.

Every row lookup a step makes is answered by the controller tables
compiled into integer-indexed dispatch kernels (:mod:`repro.core.kernel`),
which the system compiles once per table state and shares with the
simulator; a lookup is a handful of dict probes
instead of an SQL query.  A run keeps a
:class:`~repro.sim.models.StepMemo`, so a local transition met in many
global states is worked out once.  The SQL-backed
tables stay the tests' parity oracle: the differential suites hand them
to the same :func:`~repro.sim.models.step` and compare the results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..core.database import ProtocolDatabase
from ..core.table import LookupError_
from ..runtime import (
    CheckpointJournal,
    JournalError,
    check_header,
    load_journal,
)
from ..sim.models import (
    Network,
    SimProtocolError,
    StepMemo,
    _register_for,
    coherence_violation,
    directory_violation,
    initial_state,
    pending_work,
    quad_of,
    step,
)
from ..sim.system import SimConfig, TraceEvent
from ..sim.trace import render_sequence
from ..telemetry import get_tracer, new_run_id, span
from .state import (
    canonicalize,
    decode_state,
    encode_state,
    hash_state,
    orbits_trivial,
    symmetry_mode,
)

__all__ = [
    "ExplorationError",
    "ExploreConfig",
    "ExploreResult",
    "DepthStats",
    "Violation",
    "ReachabilityExplorer",
    "explore_system",
    "SUMMARY_TABLE",
    "JOURNAL_KIND",
    "RESULT_SCHEMA",
]

#: reached-state summary table written into the protocol database.
SUMMARY_TABLE = "__explore_summary"

#: columns of :data:`SUMMARY_TABLE`, one row per explored depth.
SUMMARY_COLUMNS = ("depth", "frontier", "new_states", "transitions",
                   "dedup_hits", "violations", "deadlocks")

#: ``kind`` stamped into exploration checkpoint-journal headers.
JOURNAL_KIND = "explore"

#: schema tag of the JSON result report.
RESULT_SCHEMA = "repro.explore.result/v1"

#: processor operations the explorer may inject at any idle node.
INJECT_OPS = ("ld", "st", "evict")

#: errors that mean "the tables have no row for this reachable input" —
#: a protocol hole, recorded as a violation rather than crashing the run.
_HOLE_ERRORS = (SimProtocolError, LookupError_)


class ExplorationError(RuntimeError):
    """The exploration itself failed (bad configuration, kernel
    compilation, journal mismatch) — as opposed to finding a protocol
    violation."""


@dataclass(frozen=True)
class Violation:
    """One invariant failure at a reachable state."""

    kind: str     # "coherence" | "directory" | "hole" | "deadlock"
    digest: str   # canonical-state digest where it fired
    depth: int
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "digest": self.digest,
                "depth": self.depth, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: dict) -> "Violation":
        return cls(kind=d["kind"], digest=d["digest"],
                   depth=int(d["depth"]), detail=d["detail"])


@dataclass
class ExploreConfig:
    """Topology, bounds, and execution knobs of one exploration."""

    nodes: int = 2
    depth: int = 10
    lines: int = 1
    assignment: str = "v5d"
    capacity: int = 1
    #: ``True``/"quad" = within-quad node relabellings, "full" = also
    #: permute interchangeable non-home quads, ``False``/"off" = none.
    symmetry: Any = True
    #: the transition backend: "compiled" dispatch kernels, the only
    #: one.  The field stays because ``perfbench/ops.py`` passes it.
    kernel: str = "compiled"
    #: quad count override (default: 1 quad for 1 node, else 2).  Three
    #: or more quads give "full" symmetry non-trivial orbits.
    quads: Optional[int] = None
    journal_path: Optional[str] = None
    resume_from: Optional[str] = None
    #: finish the current depth, then stop as soon as any violation is
    #: recorded — the oracle's mode, where one witness suffices.
    stop_on_violation: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.nodes < 1:
            raise ExplorationError("explore needs at least 1 node")
        if self.lines < 1:
            raise ExplorationError("explore needs at least 1 line")
        if self.depth < 0:
            raise ExplorationError("depth bound must be >= 0")
        if self.capacity < 1:
            raise ExplorationError("channel capacity must be >= 1")
        if self.kernel != "compiled":
            raise ExplorationError(
                f"kernel must be 'compiled', got {self.kernel!r}")
        if self.quads is not None and self.quads < 1:
            raise ExplorationError("quads must be >= 1")
        try:
            symmetry_mode(self.symmetry)
        except ValueError as exc:
            raise ExplorationError(str(exc)) from exc


@dataclass
class DepthStats:
    """What one BFS level did."""

    depth: int
    frontier: int      # states expanded at this depth
    new_states: int    # distinct canonical states first seen here
    transitions: int   # committed moves fired from the frontier
    dedup_hits: int    # successors that were already known
    violations: int
    deadlocks: int

    def to_dict(self) -> dict:
        return {
            "depth": self.depth, "frontier": self.frontier,
            "new_states": self.new_states, "transitions": self.transitions,
            "dedup_hits": self.dedup_hits, "violations": self.violations,
            "deadlocks": self.deadlocks,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DepthStats":
        return cls(**{k: int(d[k]) for k in (
            "depth", "frontier", "new_states", "transitions",
            "dedup_hits", "violations", "deadlocks")})


@dataclass
class ExploreResult:
    """The outcome of one bounded exploration."""

    nodes: int
    lines: int
    depth: int            # deepest level actually expanded
    depth_bound: int
    assignment: str
    symmetry: bool
    states: int           # distinct canonical states reached
    transitions: int
    dedup_hits: int
    violations: list = field(default_factory=list)   # [Violation]
    deadlocks: list = field(default_factory=list)    # [digest]
    per_depth: list = field(default_factory=list)    # [DepthStats]
    #: True when the frontier emptied before the bound — the *entire*
    #: reachable state space was enumerated, not just a prefix.
    exhausted: bool = False
    resumed_depths: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """No violation of any kind at any reachable state."""
        return not self.violations

    def to_dict(self) -> dict:
        """JSON report (timing excluded: byte-stable per code version)."""
        return {
            "schema": RESULT_SCHEMA,
            "nodes": self.nodes,
            "lines": self.lines,
            "depth": self.depth,
            "depth_bound": self.depth_bound,
            "assignment": self.assignment,
            "symmetry": self.symmetry,
            "states": self.states,
            "transitions": self.transitions,
            "dedup_hits": self.dedup_hits,
            "exhausted": self.exhausted,
            "violations": [v.to_dict() for v in self.violations],
            "deadlocks": list(self.deadlocks),
            "per_depth": [s.to_dict() for s in self.per_depth],
        }

    def render(self) -> str:
        lines = [
            f"explored {self.states} states / {self.transitions} transitions "
            f"to depth {self.depth}/{self.depth_bound} "
            f"({self.nodes} nodes, {self.lines} line"
            f"{'s' if self.lines != 1 else ''}, V={self.assignment}, "
            f"{self.wall_seconds:.2f}s)",
            f"dedup hits: {self.dedup_hits}"
            + (", symmetry reduction on"
               if self.symmetry not in (False, None, "off") else ""),
        ]
        if self.exhausted:
            lines.append("state space exhausted below the depth bound")
        if self.resumed_depths:
            lines.append(f"resumed from journal: {self.resumed_depths} "
                         f"depths restored")
        header = (f"{'depth':>6}{'frontier':>10}{'new':>8}{'trans':>8}"
                  f"{'dedup':>8}{'bad':>5}")
        lines.append(header)
        for s in self.per_depth:
            lines.append(f"{s.depth:>6}{s.frontier:>10}{s.new_states:>8}"
                         f"{s.transitions:>8}{s.dedup_hits:>8}"
                         f"{s.violations:>5}")
        if not self.violations and self.exhausted:
            lines.append("no violations: every reachable state is coherent")
        elif not self.violations:
            lines.append(f"no violations to depth {self.depth} "
                         f"(state space not exhausted)")
        else:
            lines.append(f"{len(self.violations)} violations:")
            for v in self.violations[:10]:
                lines.append(f"  [{v.kind}] depth {v.depth}: {v.detail}")
            if len(self.violations) > 10:
                lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


# -- topology -----------------------------------------------------------------
def _n_quads(config: ExploreConfig) -> int:
    if config.quads is not None:
        return config.quads
    return 1 if config.nodes == 1 else 2


def _node_ids(config: ExploreConfig) -> list[str]:
    """The explored nodes, kept in round-robin order across quads
    (``node:0.0``, ``node:1.0``, ``node:0.1``, …) so every quad
    participates before any quad gets a second node."""
    n_quads = _n_quads(config)
    keep = [
        f"node:{q}.{i}"
        for i in range(math.ceil(config.nodes / n_quads))
        for q in range(n_quads)
    ][:config.nodes]
    return sorted(keep)


def _quad_node_counts(config: ExploreConfig) -> dict[int, int]:
    """Nodes hosted per quad."""
    counts = {q: 0 for q in range(_n_quads(config))}
    for nid in _node_ids(config):
        counts[quad_of(nid)] += 1
    return counts


def _quad_classes(config: ExploreConfig) -> tuple:
    """Interchangeable-quad classes for "full" symmetry.

    Non-home quads (every explored address is homed at quad 0) hosting
    the same number of nodes are protocol-indistinguishable: their
    directory/memory/IO controllers execute identical tables and their
    channel instances are keyed only by destination quad.  Permuting
    them wholesale is an automorphism; the home quad never moves.
    """
    if symmetry_mode(config.symmetry) != "full":
        return ()
    by_count: dict[int, list[int]] = {}
    for quad, count in _quad_node_counts(config).items():
        if quad == 0:
            continue  # home quad: the directory of every line lives here
        by_count.setdefault(count, []).append(quad)
    return tuple(
        tuple(sorted(quads))
        for _, quads in sorted(by_count.items())
        if len(quads) > 1
    )


def _network(system, config: ExploreConfig, home_map: dict) -> Network:
    """Routing and capacities of the explored topology."""
    n_quads = _n_quads(config)
    sim_config = SimConfig(
        n_quads=n_quads,
        nodes_per_quad=math.ceil(config.nodes / n_quads),
        default_capacity=config.capacity,
        home_map=home_map,
    )
    return sim_config.network(
        system.channel_assignments[config.assignment], _node_ids(config))


def _addrs(config: ExploreConfig) -> list[str]:
    return [f"L{i}" for i in range(config.lines)]


# -- moves --------------------------------------------------------------------
#: (nid, addr, line-state) -> inject-move tuple template.  The domain is
#: tiny (nodes x lines x the family member's cache states) and every
#: expanded state walks it, so the skip rules run once per combination
#: instead of per state.  The rules are family-safe by construction: a
#: load is skipped in any non-I state (hits never transition, O/F
#: included), a store is skipped only in M (an O/F/S/E holder still
#: upgrades or transitions), and evicting I is a no-op — so the cache is
#: keyed purely by state *name* and serves every variant in one process.
_INJECT_TEMPLATES: dict[tuple, tuple] = {}


def _inject_moves(nid: str, addr: str, line: str) -> tuple:
    key = (nid, addr, line)
    moves = _INJECT_TEMPLATES.get(key)
    if moves is None:
        # Skip moves that cannot change the state: a load hit, a store
        # that already owns the line, an evict of nothing.
        moves = tuple(
            ("inject", nid, op, addr)
            for op in INJECT_OPS
            if not (op == "ld" and line != "I")
            and not (op == "st" and line == "M")
            and not (op == "evict" and line == "I")
        )
        _INJECT_TEMPLATES[key] = moves
    return moves


def _moves_for(state: tuple, addrs: Sequence[str]) -> list[tuple]:
    """Every potentially enabled atomic move of a state, in a fixed
    deterministic order (the merge order of the expansion)."""
    channels, dirs, nodes, ios = state
    moves: list[tuple] = [("deliver", vc, dq) for (vc, dq), _ in channels]
    for nid, cache, miss, wb, cpu_ops in nodes:
        if cpu_ops:
            moves.append(("cpu", nid))
        if miss[4] or wb[4]:
            moves.append(("reissue", nid))
    for quad, iost, pend_op, pend_addr, retry, dev_ops in ios:
        if retry:
            moves.append(("reissue_io", quad))
    for nid, cache, miss, wb, cpu_ops in nodes:
        if cpu_ops:
            continue  # one queued processor operation per node at a time
        cached = dict(cache)
        for addr in addrs:
            if _register_for(miss, wb, addr) is not None:
                # A transaction on the line is in flight: the step would
                # refuse the operation before any lookup.
                continue
            moves.extend(_inject_moves(nid, addr, cached.get(addr, "I")))
    return moves


def _expand_state(state: tuple, tables, net: Network, addrs: Sequence[str],
                  symmetry, quad_classes: tuple = (),
                  memo: Optional[StepMemo] = None) -> dict:
    """All successors of one state, plus holes and the deadlock verdict.

    Successor entries are ``(move, canonical state tuple)`` — raw
    tuples, no serialization and no digest: the merge loop takes them as
    they are and names only the states something asks for.
    """
    successors: list[tuple] = []
    holes: list[dict] = []
    progress = False              # some non-inject move committed
    for move in _moves_for(state, addrs):
        try:
            succ, _ = step(state, move, tables, net, False, memo)
        except _HOLE_ERRORS as exc:
            holes.append({
                "move": list(move),
                "error": f"{type(exc).__name__}: {exc}".splitlines()[0],
            })
            continue
        if succ is None:
            continue
        if move[0] != "inject":
            progress = True
        successors.append((move, canonicalize(succ, symmetry, quad_classes)))
    # Deadlock: pending work, nothing non-injected can ever commit (new
    # processor operations cannot unstick messages already in flight), and
    # the stall is not explained by a missing table row already reported.
    deadlocked = pending_work(state) and not progress and not holes
    return {"successors": successors, "holes": holes,
            "deadlocked": deadlocked}


# -- the explorer -------------------------------------------------------------
class ReachabilityExplorer:
    """Depth-bounded BFS over everything the controller tables allow."""

    def __init__(self, system, config: Optional[ExploreConfig] = None) -> None:
        self.system = system
        self.config = config or ExploreConfig()
        self.addrs = _addrs(self.config)
        #: every line homed at quad 0: requests from quad 1 exercise the
        #: remote-request path, requests from quad 0 the local one.
        self.home_map = {a: 0 for a in self.addrs}
        self.quad_classes = _quad_classes(self.config)
        #: the symmetry successors are canonicalized under: "off" when no
        #: orbit of this configuration has two members.
        self.symmetry = ("off" if orbits_trivial(
            _node_ids(self.config), self.config.symmetry, self.quad_classes)
            else self.config.symmetry)
        self.net = _network(system, self.config, self.home_map)
        # Kernels are compiled on first use, from the tables as they
        # stand then.
        self._kernels: Optional[dict] = None
        # Local transitions worked out against the kernels and self.net;
        # each run starts its own.
        self._memo = StepMemo()
        #: the canonical initial state.
        self.root = canonicalize(
            initial_state(_node_ids(self.config), _n_quads(self.config)),
            self.symmetry, self.quad_classes)
        self.root_digest = hash_state(self.root)
        #: canonical state -> (predecessor state, move) for every reached
        #: state in discovery order, the root -> None: the seen-set.
        self._pred: dict[tuple, Optional[tuple]] = {self.root: None}
        #: canonical state -> digest, and back, for the states named so far.
        self._names: dict[tuple, str] = {self.root: self.root_digest}
        self._named: dict[str, tuple] = {self.root_digest: self.root}

    @property
    def kernels(self) -> dict:
        """The compiled dispatch kernels the steps look rows up in.

        Taken from the system (:meth:`FamilySystem.kernels`, compiled
        once per table state) when a transition first needs firing —
        mutations applied before the run (the oracle path) are therefore
        always part of what is compiled.  A table the dispatch compiler
        cannot handle raises :class:`ExplorationError`.
        """
        if self._kernels is None:
            try:
                self._kernels = self.system.kernels()
            except Exception as exc:
                raise ExplorationError(
                    f"kernel compilation failed: {type(exc).__name__}: "
                    f"{exc}".splitlines()[0]) from exc
        return self._kernels

    def close(self) -> None:
        """Nothing to release: a run holds no process or file open.
        The method stays because ``perfbench/ops.py`` calls it."""

    # -- naming ---------------------------------------------------------------
    def _name(self, state: tuple) -> str:
        """A reached state's digest, hashed the first time it is asked for."""
        digest = self._names.get(state)
        if digest is None:
            digest = self._names[state] = hash_state(state)
            self._named[digest] = state
        return digest

    @property
    def states(self) -> dict[str, tuple]:
        """Digest -> canonical state for every reached state, in discovery
        order; built on access, naming every state."""
        return {self._name(state): state for state in self._pred}

    @property
    def pred(self) -> dict[str, Optional[tuple]]:
        """Digest -> (predecessor digest, move) for every reached state,
        the root mapping to None; built on access."""
        return {
            self._name(state):
                None if entry is None else (self._name(entry[0]), entry[1])
            for state, entry in self._pred.items()
        }

    # -- journaling -----------------------------------------------------------
    def _journal_header(self) -> dict:
        # The depth bound stays out: resuming a depth-8 journal with
        # --depth 12 legitimately continues the same exploration.  The
        # quad count and the system's family member (off MESI, so
        # pre-family journals resume) are stamped only when set.
        c = self.config
        header = {
            "kind": JOURNAL_KIND,
            "nodes": c.nodes,
            "lines": c.lines,
            "assignment": c.assignment,
            "symmetry": symmetry_mode(c.symmetry),
            "capacity": c.capacity,
        }
        if c.quads is not None:
            header["quads"] = c.quads
        variant = self.system.spec.key
        if variant != "mesi":
            header["variant"] = variant
        return header

    # -- the BFS --------------------------------------------------------------
    def run(self) -> ExploreResult:
        cfg = self.config
        t0 = time.perf_counter()
        tracer = get_tracer()
        self._memo = StepMemo()
        with span("explore.run", nodes=cfg.nodes, depth_bound=cfg.depth,
                  assignment=cfg.assignment):
            result = self._run(t0, tracer)
        if tracer.enabled:
            tracer.incr("explore.states", result.states)
            tracer.incr("explore.transitions", result.transitions)
            tracer.incr("explore.dedup_hits", result.dedup_hits)
            tracer.gauge("explore.depth", result.depth)
            tracer.incr("explore.violations", len(result.violations))
            tracer.incr("explore.memo.hits", self._memo.hits)
            tracer.incr("explore.memo.misses", self._memo.misses)
        return result

    def _run(self, t0: float, tracer) -> ExploreResult:
        cfg = self.config
        violations: list[Violation] = []
        deadlocks: list[str] = []
        per_depth: list[DepthStats] = []
        frontier: list[tuple] = [self.root]
        start_depth = 0
        resumed = 0

        journal_path = cfg.journal_path
        journal_header = self._journal_header()
        if cfg.resume_from is not None:
            journal_path = journal_path or cfg.resume_from
            header, units = load_journal(cfg.resume_from)
            check_header(cfg.resume_from, header, journal_header)
            frontier, start_depth, resumed = self._restore(
                {int(d): data for d, data in units.items()},
                violations, deadlocks, per_depth)

        run_id = new_run_id() if tracer.enabled else None
        tracer.emit("explore.started", run_id=run_id, kind=JOURNAL_KIND,
                    nodes=cfg.nodes, lines=cfg.lines,
                    depth_bound=cfg.depth, assignment=cfg.assignment,
                    resumed_depths=resumed)

        def _emit_depth(stats: DepthStats) -> None:
            # One live progress event per completed BFS level — what
            # ``repro watch`` renders between journal flushes.
            tracer.emit("explore.depth", run_id=run_id,
                        states=len(self._pred), **stats.to_dict())

        # Depth 0: the root is a reached state and is checked like any
        # other (an empty initial state is trivially coherent).
        if start_depth == 0:
            self._check_state(self.root, 0, violations)
            per_depth.append(DepthStats(0, 0, 1, 0, 0, len(violations), 0))
            _emit_depth(per_depth[-1])

        journal = (CheckpointJournal.open(journal_path, journal_header)
                   if journal_path else None)
        try:
            if journal is not None and start_depth == 0:
                journal.record(0, self._depth_record(
                    new=[self.root], stats=per_depth[-1],
                    violations=violations, deadlocks=[]))

            depth = start_depth
            for depth in range(start_depth + 1, cfg.depth + 1):
                if not frontier:
                    depth -= 1
                    break
                if cfg.stop_on_violation and violations:
                    depth -= 1
                    break
                stats, new_frontier, depth_violations, depth_deadlocks = \
                    self._expand_depth(depth, frontier)
                violations.extend(depth_violations)
                deadlocks.extend(depth_deadlocks)
                per_depth.append(stats)
                _emit_depth(stats)
                if journal is not None:
                    journal.record(depth, self._depth_record(
                        new=new_frontier, stats=stats,
                        violations=depth_violations,
                        deadlocks=depth_deadlocks))
                frontier = new_frontier
        finally:
            if journal is not None:
                journal.close()

        return ExploreResult(
            nodes=cfg.nodes,
            lines=cfg.lines,
            depth=depth,
            depth_bound=cfg.depth,
            assignment=cfg.assignment,
            symmetry=cfg.symmetry,
            states=len(self._pred),
            transitions=sum(s.transitions for s in per_depth),
            dedup_hits=sum(s.dedup_hits for s in per_depth),
            violations=violations,
            deadlocks=deadlocks,
            per_depth=per_depth,
            exhausted=not frontier,
            resumed_depths=resumed,
            wall_seconds=time.perf_counter() - t0,
        )

    def _expand_depth(self, depth: int, frontier: list[tuple]):
        """Expand one whole BFS level."""
        expansions = self._expand_frontier(frontier)
        stats = DepthStats(depth, len(frontier), 0, 0, 0, 0, 0)
        seen = self._pred
        new_frontier: list[tuple] = []
        violations: list[Violation] = []
        deadlocks: list[str] = []
        for state, expansion in zip(frontier, expansions):
            for hole in expansion["holes"]:
                violations.append(Violation(
                    kind="hole", digest=self._name(state), depth=depth - 1,
                    detail=f"move {tuple(hole['move'])}: {hole['error']}"))
            if expansion["deadlocked"]:
                digest = self._name(state)
                deadlocks.append(digest)
                violations.append(Violation(
                    kind="deadlock", digest=digest, depth=depth - 1,
                    detail=self._deadlock_detail(state)))
            for move, succ in expansion["successors"]:
                stats.transitions += 1
                if succ in seen:
                    stats.dedup_hits += 1
                    continue
                seen[succ] = (state, move)
                new_frontier.append(succ)
                stats.new_states += 1
                self._check_state(succ, depth, violations)
        stats.violations = len(violations)
        stats.deadlocks = len(deadlocks)
        return stats, new_frontier, violations, deadlocks

    def _expand_frontier(self, frontier: list[tuple]) -> list:
        """The expansion of every frontier state, in frontier order."""
        kernels = self.kernels
        return [
            _expand_state(state, kernels, self.net, self.addrs,
                          self.symmetry, self.quad_classes, self._memo)
            for state in frontier
        ]

    def _check_state(self, state: tuple, depth: int,
                     violations: list[Violation]) -> None:
        coh = coherence_violation(state, self.system.spec.forward_state)
        if coh is not None:
            violations.append(
                Violation("coherence", self._name(state), depth, coh))
        if not pending_work(state):
            dirv = directory_violation(state, self.net.home)
            if dirv is not None:
                violations.append(
                    Violation("directory", self._name(state), depth, dirv))

    def _deadlock_detail(self, state: tuple) -> str:
        stuck = [f"{vc}@q{dq}:" + "/".join(msg for msg, *_ in envs)
                 for (vc, dq), envs in state[0]]
        if stuck:
            return "no enabled transition; in flight: " + ", ".join(stuck)
        return "no enabled transition for outstanding work"

    # -- journal records ------------------------------------------------------
    def _depth_record(self, new, stats, violations, deadlocks) -> dict:
        # ``new`` holds the states first reached at this depth; names and
        # encodings are made only here, when a journal wants them.
        records = []
        for state in new:
            entry = self._pred[state]
            records.append([
                self._name(state), encode_state(state),
                None if entry is None else self._name(entry[0]),
                None if entry is None else list(entry[1]),
            ])
        return {
            "new": records,
            "stats": stats.to_dict(),
            "violations": [v.to_dict() for v in violations],
            "deadlocks": list(deadlocks),
        }

    def _restore(self, completed: dict[int, dict], violations, deadlocks,
                 per_depth) -> tuple[list[tuple], int, int]:
        """Rebuild seen-set, predecessor map, and statistics from a
        journal; returns (frontier, last completed depth, depths restored)."""
        if 0 not in completed:
            raise JournalError(
                "cannot resume: journal holds no depth-0 record")
        depths = sorted(completed)
        if depths != list(range(len(depths))):
            raise JournalError(
                f"cannot resume: journal depths {depths} are not contiguous")
        frontier: list[tuple] = []
        for d in depths:
            record = completed[d]
            frontier = []
            for digest, enc, pred_digest, move in record["new"]:
                state = decode_state(enc)
                self._names[state] = digest
                self._named[digest] = state
                self._pred[state] = (
                    None if pred_digest is None
                    else (self._named[pred_digest], tuple(move)))
                frontier.append(state)
            per_depth.append(DepthStats.from_dict(record["stats"]))
            violations.extend(Violation.from_dict(v)
                              for v in record["violations"])
            deadlocks.extend(record["deadlocks"])
        return frontier, depths[-1], len(depths)

    # -- counterexamples ------------------------------------------------------
    def trace_to(self, digest: str) -> list[tuple]:
        """The move sequence from the initial state to ``digest``."""
        state = self._named.get(digest)
        if state is None and len(self._named) < len(self._pred):
            self.states  # name the states not named yet
            state = self._named.get(digest)
        if state is None:
            raise ExplorationError(f"state {digest!r} was not reached")
        moves: list[tuple] = []
        entry = self._pred[state]
        while entry is not None:
            state, move = entry
            moves.append(move)
            entry = self._pred[state]
        moves.reverse()
        return moves

    def replay(self, moves: Sequence[tuple]) -> tuple[list[TraceEvent], str]:
        """Re-execute a move sequence from the initial state.

        Returns the concatenated message events (steps stamped with the
        move index) and the digest of the canonical final state — which,
        for a trace extracted by :meth:`trace_to`, equals the target
        state's digest.
        """
        state = self.root
        events: list[TraceEvent] = []
        for i, move in enumerate(moves):
            try:
                succ, fx = step(state, tuple(move), self.kernels, self.net,
                                False, self._memo)
            except _HOLE_ERRORS as exc:
                raise ExplorationError(
                    f"replay hit a protocol hole at move {i} "
                    f"({move}): {exc}") from exc
            if succ is None:
                raise ExplorationError(
                    f"replay diverged: move {i} ({move}) did not commit")
            events.extend(
                TraceEvent(i, len(events) + n, msg, src, dst, addr, vc)
                for n, (msg, src, dst, addr, (vc, _)) in enumerate(fx.sends, 1)
            )
            state = canonicalize(succ, self.symmetry, self.quad_classes)
        return events, hash_state(state)

    def counterexample(self, digest: str, width: int = 14) -> str:
        """A paper-style message-sequence rendering of the shortest path
        to a violating state."""
        moves = self.trace_to(digest)
        events, final = self.replay(moves)
        header = (f"counterexample: {len(moves)} moves to state "
                  f"{final[:12]}…")
        if not events:
            return header + "\n(no messages: processor-local moves only)"
        return header + "\n" + render_sequence(events, width=width)

    # -- summary table --------------------------------------------------------
    def write_summary(self, db: ProtocolDatabase,
                      result: ExploreResult) -> int:
        """Persist the per-depth reach summary as :data:`SUMMARY_TABLE`
        (it round-trips through ``snapshot()``/``deserialize()`` like any
        other protocol table)."""
        rows = [
            {
                "depth": str(s.depth),
                "frontier": str(s.frontier),
                "new_states": str(s.new_states),
                "transitions": str(s.transitions),
                "dedup_hits": str(s.dedup_hits),
                "violations": str(s.violations),
                "deadlocks": str(s.deadlocks),
            }
            for s in result.per_depth
        ]
        return db.create_table_from_rows(SUMMARY_TABLE, SUMMARY_COLUMNS, rows)


def explore_system(system, **kwargs: Any) -> ExploreResult:
    """Convenience: build a :class:`ReachabilityExplorer` from keyword
    configuration and run it."""
    explorer = ReachabilityExplorer(system, ExploreConfig(**kwargs))
    return explorer.run()
