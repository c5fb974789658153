"""Automated channel-assignment repair (the paper's debugging loop).

Section 4.1: "The cycles that lead to deadlocks are resolved by modifying
V and/or by adding more virtual channels.  The process is repeated until
no deadlocks are found."  At Fujitsu that loop was manual; with the
analysis this fast, it can be searched.

Candidate fixes, in increasing hardware cost (mirroring the paper's own
history):

1. **move** one (message, src, dst) assignment off a cyclic channel onto
   a *new finite* virtual channel (the step that created VC4);
2. **dedicate** one (message, src, dst) assignment onto a new *dedicated*
   unbounded path (the step that fixed Figure 4 — "a dedicated hardware
   path ... for mread requests");
3. **dedicate a whole channel** (every message on it becomes unbounded —
   the big hammer).

The greedy search scores every candidate incrementally
(:class:`~repro.core.deadlock.CandidateScorer`: the channel-independent
part of the analysis is built once per search, so a candidate costs one
V rewrite and one query) and keeps whichever clears the most cycles at
the lowest cost, repeating until the assignment is deadlock-free.  Two
invariants of the applied sequence are enforced (and pinned by the
property suite):

* fix costs are **non-decreasing across rounds** — once the search has
  escalated to a dearer kind of fix it never silently falls back, so the
  applied sequence reads as the paper's own history (cheap V edits
  first, dedicated hardware paths only when V edits plateau);
* a fix **never breaks a previously-clean channel** — candidates whose
  residual cycles touch any channel that was cycle-free before the fix
  are rejected outright, so repair strictly shrinks the cyclic region.

Every accepted fix can be **re-verified**
(:meth:`DeadlockRepairer.reverify`): one full run of the deadlock
analysis (the search only scored it incrementally), the structural
invariants, and an optional bounded reachability exploration of the
repaired system — Sethi et al.'s discipline that a deadlock-freedom
argument is only trusted once each candidate fix is independently
checked.  The independent check is the exploration, a second method,
not a second copy of the static analysis.  Long
searches checkpoint each applied round into a
:class:`~repro.runtime.CheckpointJournal` and resume mid-search.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..telemetry import get_tracer
from .database import ProtocolDatabase
from .deadlock import (
    CandidateScorer,
    ChannelAssignment,
    ControllerMessageSpec,
    DeadlockAnalyzer,
    VCAssignment,
)

__all__ = ["Fix", "RepairResult", "DeadlockRepairer", "REPAIR_JOURNAL_KIND"]

#: Cost ranking of fix kinds (cheap first).
_COSTS = {"move": 0, "dedicate-message": 1, "dedicate-channel": 2}

#: ``kind`` stamped into repair checkpoint-journal headers.
REPAIR_JOURNAL_KIND = "repair-search"

#: the one dependency table every full analysis of a repairer reuses and
#: drops, so a search leaves the database as it found it.
_SCRATCH_TABLE = "pdt_repair"


def _assignment_digest(assignment: ChannelAssignment) -> str:
    """A short stable digest of an assignment's content (journal guard:
    resuming against a different base V must fail loudly)."""
    payload = json.dumps(
        {
            "assignments": sorted(
                (a.message, a.src, a.dst, a.channel)
                for a in assignment.assignments
            ),
            "dedicated": sorted(assignment.dedicated),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cyclic_channels(cycles) -> set:
    return {vc for cycle in cycles for vc in cycle}


@dataclass(frozen=True)
class Fix:
    """One candidate modification of V."""

    kind: str  # 'move' | 'dedicate-message' | 'dedicate-channel'
    description: str
    assignment: ChannelAssignment = field(compare=False, hash=False)
    #: the (message, src, dst, new_channel) reroutes this fix applies.
    changes: tuple = ()
    #: channels this fix newly marks as dedicated/unbounded.
    dedicated: tuple = ()

    @property
    def cost(self) -> int:
        return _COSTS[self.kind]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "cost": self.cost,
            "assignment": self.assignment.name,
            "changes": [list(c) for c in self.changes],
            "dedicated": list(self.dedicated),
        }


@dataclass
class RepairResult:
    """Outcome of the repair search."""

    initial_cycles: list
    applied: list[Fix]
    final_assignment: ChannelAssignment
    final_cycles: list
    evaluated: int
    seconds: float
    #: per-fix re-verification verdicts (filled by
    #: :meth:`DeadlockRepairer.reverify`; empty until then).
    reverified: list[dict] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return not self.final_cycles

    @property
    def total_cost(self) -> int:
        return sum(f.cost for f in self.applied)

    def to_dict(self) -> dict:
        out = {
            "success": self.success,
            "initial_cycles": len(self.initial_cycles),
            "final_cycles": len(self.final_cycles),
            "evaluated": self.evaluated,
            "total_cost": self.total_cost,
            "fixes": [f.to_dict() for f in self.applied],
        }
        if self.reverified:
            out["reverified"] = list(self.reverified)
        return out

    def render(self) -> str:
        lines = [
            f"repair search: {len(self.initial_cycles)} cycle(s) initially, "
            f"{self.evaluated} candidate evaluations, {self.seconds:.1f}s",
        ]
        for i, fix in enumerate(self.applied, 1):
            lines.append(f"  step {i}: {fix.description} (cost {fix.cost})")
        verdict = ("deadlock-free" if self.success
                   else f"{len(self.final_cycles)} cycle(s) remain")
        lines.append(f"  result: {verdict} "
                     f"(assignment {self.final_assignment.name!r}, "
                     f"total cost {self.total_cost})")
        for v in self.reverified:
            lines.append(f"  reverified {v['assignment']!r}: "
                         f"{'ok' if v['ok'] else 'FAILED'} "
                         f"(invariants={v['invariants']}, "
                         f"sql={v['deadlock_sql']['cycles']} cycle(s)"
                         + (f", oracle={'clean' if not v['oracle']['caught'] else v['oracle']['kind']}"
                            if v.get("oracle") else "")
                         + ")")
        return "\n".join(lines)


class DeadlockRepairer:
    """Greedy search over channel-assignment edits.

    ``system`` is optional but unlocks the full re-verification battery
    (structural invariants and the bounded reachability oracle need a
    live system, not just its database); :meth:`for_system` threads a
    family member's own specs and channel assignments through, so a
    MOESI repair is searched and re-verified against MOESI tables.
    """

    def __init__(
        self,
        db: ProtocolDatabase,
        specs: Sequence[ControllerMessageSpec],
        assignment: ChannelAssignment,
        system=None,
    ) -> None:
        self.db = db
        self.specs = tuple(specs)
        self.base = assignment
        self.system = system

    @classmethod
    def for_system(cls, system, assignment="v5") -> "DeadlockRepairer":
        """A repairer bound to one (family-member) system: its database,
        its deadlock specs, its channel assignment."""
        if isinstance(assignment, str):
            assignment = system.channel_assignments[assignment]
        return cls(system.db, system.deadlock_specs(), assignment,
                   system=system)

    # -- analysis ----------------------------------------------------------------
    def _cycles(self, assignment: ChannelAssignment):
        """The cycles of one full analysis, its table dropped after."""
        try:
            return DeadlockAnalyzer(self.db, self.specs, assignment).analyze(
                table_name=_SCRATCH_TABLE).cycles()
        finally:
            self.db.drop_table(_SCRATCH_TABLE)

    # -- candidates ---------------------------------------------------------------
    def _fresh_channel(self, assignment: ChannelAssignment) -> str:
        existing = assignment.channels() | assignment.dedicated
        n = 0
        while f"VCN{n}" in existing:
            n += 1
        return f"VCN{n}"

    def candidates(self, assignment: ChannelAssignment, cycles) -> list[Fix]:
        cyclic = {vc for cycle in cycles for vc in cycle}
        fixes: list[Fix] = []
        seen_keys: set[tuple] = set()
        for a in assignment.assignments:
            if a.channel not in cyclic:
                continue
            key = (a.message, a.src, a.dst)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            fresh = self._fresh_channel(assignment)
            fixes.append(Fix(
                kind="move",
                description=(f"move {a.message} ({a.src}->{a.dst}) from "
                             f"{a.channel} to new channel {fresh}"),
                assignment=assignment.reassigned(
                    f"{assignment.name}+mv-{a.message}", {key: fresh},
                ),
                changes=((a.message, a.src, a.dst, fresh),),
            ))
            fixes.append(Fix(
                kind="dedicate-message",
                description=(f"dedicated hardware path for {a.message} "
                             f"({a.src}->{a.dst})"),
                assignment=assignment.reassigned(
                    f"{assignment.name}+ded-{a.message}", {key: fresh},
                    dedicated=assignment.dedicated | {fresh},
                ),
                changes=((a.message, a.src, a.dst, fresh),),
                dedicated=(fresh,),
            ))
        # Pairs of dedicated message paths: single-message fixes often
        # plateau (in our protocol both mread *and* mwrite must leave the
        # finite directory-to-memory channel, exactly as EXPERIMENTS.md
        # documents for the paper's fix).
        keys = sorted(seen_keys)
        for i, key_a in enumerate(keys):
            for key_b in keys[i + 1:]:
                fresh = self._fresh_channel(assignment)
                fresh2 = f"{fresh}b"
                fixes.append(Fix(
                    kind="dedicate-message",
                    description=(f"dedicated hardware paths for "
                                 f"{key_a[0]} ({key_a[1]}->{key_a[2]}) and "
                                 f"{key_b[0]} ({key_b[1]}->{key_b[2]})"),
                    assignment=assignment.reassigned(
                        f"{assignment.name}+ded-{key_a[0]}-{key_b[0]}",
                        {key_a: fresh, key_b: fresh2},
                        dedicated=assignment.dedicated | {fresh, fresh2},
                    ),
                    changes=((*key_a, fresh), (*key_b, fresh2)),
                    dedicated=(fresh, fresh2),
                ))
        for vc in sorted(cyclic):
            fixes.append(Fix(
                kind="dedicate-channel",
                description=f"make all of {vc} an unbounded dedicated path",
                assignment=ChannelAssignment(
                    f"{assignment.name}+ded-{vc}",
                    assignment.assignments,
                    dedicated=assignment.dedicated | {vc},
                ),
                dedicated=(vc,),
            ))
        return fixes

    # -- journaled resume ------------------------------------------------------------
    def _replay_fix(self, assignment: ChannelAssignment,
                    record: dict) -> Fix:
        """Rebuild one applied fix from its journal record."""
        changes = tuple(tuple(c) for c in record.get("changes", ()))
        newly_dedicated = tuple(record.get("dedicated", ()))
        if changes or newly_dedicated:
            rebuilt = assignment.reassigned(
                record["name"],
                {(m, s, d): ch for m, s, d, ch in changes},
                dedicated=assignment.dedicated | set(newly_dedicated),
            )
        else:
            rebuilt = assignment
        return Fix(
            kind=record["kind"],
            description=record["description"],
            assignment=rebuilt,
            changes=changes,
            dedicated=newly_dedicated,
        )

    # -- the loop --------------------------------------------------------------------
    def search(self, max_rounds: int = 4,
               journal_path: Optional[str] = None) -> RepairResult:
        """Repeat the paper's analyze-modify loop until deadlock-free.

        With ``journal_path`` every applied round is durably appended to
        a checkpoint journal first; re-running against an existing
        journal replays the recorded fixes (no candidate re-evaluation)
        and continues the search from where the previous process died.
        """
        from ..runtime import CheckpointJournal, load_journal

        t0 = time.perf_counter()
        evaluated = 0
        current = self.base
        applied: list[Fix] = []
        journal = None
        header = {
            "kind": REPAIR_JOURNAL_KIND,
            "assignment": self.base.name,
            "base_digest": _assignment_digest(self.base),
        }
        variant = self.system.spec.key if self.system is not None else "mesi"
        if variant != "mesi":
            # Absent for the baseline so pre-family journals resume.
            # Members can share a V digest (MESI and MESIF do under v5),
            # so the digest alone cannot tell their journals apart.
            header["variant"] = variant
        if journal_path is not None:
            # Open before replaying: ``open`` rejects a foreign header
            # before any of its fixes touch this run.
            journal = CheckpointJournal.open(journal_path, header)
            _, units = load_journal(journal_path)
            for round_no in sorted(units):
                fix = self._replay_fix(current, units[round_no])
                applied.append(fix)
                current = fix.assignment
            if units:
                get_tracer().incr("repair.search.resumed_rounds",
                                  len(applied))

        initial_cycles = self._cycles(self.base)
        cycles = self._cycles(current) if applied else initial_cycles
        # The applied-fix invariants: costs never decrease across rounds,
        # and no fix may leave a cycle through a channel that was clean
        # before it (repair strictly shrinks the cyclic region).
        cost_floor = max((f.cost for f in applied), default=0)

        scorer = CandidateScorer(self.db, self.specs)
        try:
            for round_no in range(len(applied), max_rounds):
                if not cycles:
                    break
                # Cheap fixes first (moving a message / a dedicated path
                # for one message — the paper's own steps).  A
                # whole-channel dedication is an architectural big hammer
                # (unbounded buffering for everything on it) and is only
                # considered when no cheap fix makes progress.
                cyclic_before = _cyclic_channels(cycles)
                all_fixes = self.candidates(current, cycles)
                best: Optional[tuple[tuple, Fix, list]] = None
                for tier in (("move", "dedicate-message"),
                             ("dedicate-channel",)):
                    for fix in all_fixes:
                        if fix.kind not in tier or fix.cost < cost_floor:
                            continue
                        fixed_cycles = scorer.cycles(fix.assignment)
                        evaluated += 1
                        if _cyclic_channels(fixed_cycles) - cyclic_before:
                            continue  # would break a previously-clean channel
                        score = (len(fixed_cycles), fix.cost)
                        if best is None or score < best[0]:
                            best = (score, fix, fixed_cycles)
                    if best is not None and len(best[2]) < len(cycles):
                        break  # a fix in this tier makes progress
                if best is None or len(best[2]) >= len(cycles):
                    break  # nothing helps
                _, fix, cycles = best
                applied.append(fix)
                current = fix.assignment
                cost_floor = fix.cost
                get_tracer().incr("repair.search.fixes")
                if journal is not None:
                    journal.record(round_no, {
                        "kind": fix.kind,
                        "description": fix.description,
                        "name": fix.assignment.name,
                        "changes": [list(c) for c in fix.changes],
                        "dedicated": list(fix.dedicated),
                        "cycles_after": len(cycles),
                    })
        finally:
            scorer.close()
        if journal is not None:
            journal.close()
        get_tracer().incr("repair.search.evaluated", evaluated)
        return RepairResult(
            initial_cycles=initial_cycles,
            applied=applied,
            final_assignment=current,
            final_cycles=cycles,
            evaluated=evaluated,
            seconds=time.perf_counter() - t0,
        )

    # -- independent re-verification --------------------------------------------------
    def reverify(
        self,
        result: RepairResult,
        oracle_depth: int = 0,
        oracle_nodes: int = 2,
        oracle_lines: int = 1,
        oracle_capacity: int = 1,
    ) -> list[dict]:
        """Independently re-verify every applied fix of ``result``.

        Each fix's assignment gets one full deadlock analysis (the
        search only scored it incrementally); when the repairer holds a
        live ``system``, the structural invariants are re-checked and —
        with ``oracle_depth > 0`` — the *final* repaired assignment is
        handed to the bounded reachability oracle for a ground-truth
        sweep.  The verdict list is stored on ``result.reverified`` and
        a fix is ``ok`` only if every check it could run passed: the
        final assignment must also be free of cycles.
        """
        verdicts: list[dict] = []
        for i, fix in enumerate(result.applied):
            cycles = self._cycles(fix.assignment)
            is_final = i == len(result.applied) - 1
            verdict: dict[str, Any] = {
                "fix": fix.description,
                "assignment": fix.assignment.name,
                "cost": fix.cost,
                "deadlock_sql": {"free": not cycles,
                                 "cycles": len(cycles)},
                "invariants": None,
                "oracle": None,
            }
            if self.system is not None:
                verdict["invariants"] = bool(
                    self.system.check_invariants().passed)
                if is_final and oracle_depth > 0:
                    verdict["oracle"] = self._oracle_verdict(
                        fix.assignment, oracle_depth, oracle_nodes,
                        oracle_lines, oracle_capacity)
            # Intermediate fixes legitimately leave residual cycles;
            # the final assignment must be clean.
            checks = [verdict["deadlock_sql"]["free"]] if is_final else []
            if verdict["invariants"] is not None:
                checks.append(verdict["invariants"])
            if verdict["oracle"] is not None:
                checks.append(not verdict["oracle"]["caught"])
            verdict["ok"] = all(checks)
            verdicts.append(verdict)
            get_tracer().incr("repair.reverify.ok" if verdict["ok"]
                              else "repair.reverify.failed")
        result.reverified = verdicts
        return verdicts

    def _oracle_verdict(self, assignment: ChannelAssignment, depth: int,
                        nodes: int, lines: int, capacity: int) -> dict:
        """Bounded ground-truth sweep of the repaired assignment: the
        repaired V is registered on the live system under its own name
        and explored like any oracle-checked mutant."""
        from ..explore.oracle import oracle_check

        name = assignment.name
        previous = self.system.channel_assignments.get(name)
        self.system.channel_assignments[name] = assignment
        try:
            verdict = oracle_check(
                self.system, assignment=name, depth=depth, nodes=nodes,
                lines=lines, capacity=capacity, stop_on_violation=True)
        finally:
            if previous is None:
                self.system.channel_assignments.pop(name, None)
            else:
                self.system.channel_assignments[name] = previous
        return {
            "caught": bool(verdict.caught),
            "kind": verdict.kind,
            "states": verdict.states,
            "depth": verdict.depth,
        }
