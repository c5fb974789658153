"""The mutation campaign: every mutant through the full detection pipeline.

What no mutation changes is derived once per campaign into a
:class:`MutantTemplate`.  Each sampled mutation is applied to a private
clone (the template's snapshot → :meth:`ProtocolDatabase.deserialize` →
:meth:`FamilySystem.attach`) and pushed through the three detection
layers in the paper's order:

1. **invariants** — one sweep of the behavioral suite and the
   structural audits (set differences against the clean copies, see
   :mod:`repro.faults.audits`), then the determinism checks, only those
   reading a table the mutation wrote (:attr:`Mutation.tables`);
2. **deadlock** — the SQL VCG analysis; a mutant is caught when the cycle
   set differs from the clean system's or the V lookup fails;
3. **simulation** — Figure 2 plus a short random workload; protocol
   lookup failures, coherence violations, deadlocks, and non-quiescent
   runs all count as detection.

Two optional stages extend the pipeline: bounded exhaustive exploration
(``oracle="explore"``) re-scores survivors as ground truth, and the
repair stage (``repair=True``) closes the loop — deadlock-caught mutants
get candidate channel-assignment fixes proposed, re-verified, and ranked
by cost (:class:`repro.core.repair.DeadlockRepairer`), recorded on the
:class:`DetectionReport`.

The per-mutant :class:`DetectionReport` records the earliest layer that
fired (or ESCAPED); :class:`CampaignResult` aggregates the fault-class ×
layer detection matrix that ``repro mutate`` prints and commits as
``BENCH_mutation.json``.  :func:`compare_to_baseline` gates CI: a mutant
that a previous campaign caught at some layer must never be caught later
(or escape) after a code change.

Mutants run inline, one after another, in the calling process.  Each
completed mutant is checkpointed to a durable JSONL journal
(``journal_path``, :mod:`repro.runtime`, see ``docs/RESILIENCE.md``)
before the next one starts, so an interrupted run resumes
(``resume_from``) exactly after the last completed mutant; an exception
outside the detection taxonomy becomes a ``crashed`` report for that
mutant instead of aborting the campaign.  A :class:`DatabaseError`
inside the invariant or deadlock layer is that layer's detection
("checker error" / "analysis error"): each check has one engine, and a
mutant that breaks it corrupted the tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.database import DatabaseError, ProtocolDatabase
from ..core.deadlock import MissingAssignmentError
from ..core.invariants import InvariantChecker
from ..core.table import LookupError_
from ..runtime import CheckpointJournal, check_header, load_journal
from ..telemetry import (
    TraceContext,
    get_tracer,
    new_run_id,
    span,
    use_context,
)
from . import audits
from .mutations import FAULT_CLASSES, Mutation, MutationEngine

__all__ = [
    "DetectionReport",
    "CampaignResult",
    "MutantTemplate",
    "run_campaign",
    "compare_to_baseline",
    "MATRIX_SCHEMA",
    "JOURNAL_KIND",
    "ORACLE_LAYER",
]

#: the ``worker_id`` that attributes a mutant's telemetry: every mutant
#: runs inline in the calling process.
INLINE_WORKER = "inline"

#: schema tag of the detection-matrix JSON report.
MATRIX_SCHEMA = "repro.faults.matrix/v1"

#: ``kind`` stamped into campaign checkpoint-journal headers.
JOURNAL_KIND = "mutation-campaign"

#: detection layers, earliest first; ESCAPED sorts after all of them.
LAYERS = ("invariants", "deadlock", "simulation")

#: the optional ground-truth layer (``--oracle explore``): bounded
#: exhaustive exploration of the mutated tables, run only for mutants
#: that survived all of :data:`LAYERS`.
ORACLE_LAYER = "oracle"

_LAYER_RANK = {"invariants": 0, "deadlock": 1, "simulation": 2,
               ORACLE_LAYER: 3, None: 4}


@dataclass(frozen=True)
class DetectionReport:
    """The outcome of one mutant's trip through the pipeline."""

    mutant_id: int
    fault_class: str
    target: str
    description: str
    detected_by: Optional[str]  # LAYERS entry or ORACLE_LAYER; None=ESCAPED
    detail: str = ""
    seconds: float = 0.0
    #: "ok" for a pipeline verdict; "crashed" when the mutant raised
    #: outside the detection taxonomy ("timeout" only in journals of
    #: older versions).  Neither failure outcome is a detection.
    outcome: str = "ok"
    #: repair-stage outcome (``RepairResult.to_dict()`` shape, or
    #: ``{"success": False, "error": ...}``) for deadlock-caught mutants
    #: when the campaign ran with ``repair=True``; None otherwise.
    repair: Optional[dict] = None

    @property
    def caught(self) -> bool:
        """Whether any layer detected the mutant."""
        return self.detected_by is not None

    @property
    def caught_pre_sim(self) -> bool:
        """Whether a static layer (invariants or deadlock) detected the
        mutant before any simulation ran — the paper's headline claim."""
        return self.detected_by in ("invariants", "deadlock")

    def to_dict(self) -> dict:
        """JSON-friendly form; timing is excluded so the report is
        byte-for-byte deterministic for a given seed and code version.
        ``outcome`` appears only when non-default, keeping healthy-run
        matrices byte-identical across code versions."""
        d = {
            "mutant_id": self.mutant_id,
            "fault_class": self.fault_class,
            "target": self.target,
            "description": self.description,
            "detected_by": self.detected_by,
            "detail": self.detail,
        }
        if self.outcome != "ok":
            d["outcome"] = self.outcome
        if self.repair is not None:
            # Only stamped under --repair, so plain matrices stay
            # byte-identical to pre-repair code versions.
            d["repair"] = self.repair
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionReport":
        """Rebuild a report from :meth:`to_dict` output (journal resume;
        timing did not survive serialization and restores as 0)."""
        return cls(
            mutant_id=d["mutant_id"],
            fault_class=d["fault_class"],
            target=d.get("target", ""),
            description=d.get("description", ""),
            detected_by=d.get("detected_by"),
            detail=d.get("detail", ""),
            outcome=d.get("outcome", "ok"),
            repair=d.get("repair"),
        )


@dataclass
class CampaignResult:
    """All detection reports of one campaign plus the aggregate matrix."""

    seed: int
    assignment: str
    classes: tuple[str, ...]
    #: protocol-family member the campaign mutated ("mesi" = baseline).
    variant: str = "mesi"
    reports: list[DetectionReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: mutants restored from a checkpoint journal instead of re-executed
    #: (kept out of :meth:`to_dict` so a resumed campaign's matrix is
    #: identical to an uninterrupted one's).
    resumed: int = 0
    #: exploration-oracle parameters (``{"depth", "nodes", "lines"}``)
    #: when the ground-truth stage ran, else None.  The matrix gains an
    #: ``oracle`` column only when set, so non-oracle matrices stay
    #: byte-identical to pre-oracle code versions.
    oracle: Optional[dict] = None
    #: repair-stage parameters (``{"rounds", "oracle_depth"}``) when the
    #: fifth stage ran, else None.  Like ``oracle``, absent from
    #: :meth:`to_dict` unless set so existing matrices stay stable.
    repair: Optional[dict] = None

    @property
    def count(self) -> int:
        """Number of mutants the campaign ran."""
        return len(self.reports)

    def _layers(self) -> tuple[str, ...]:
        return LAYERS + (ORACLE_LAYER,) if self.oracle else LAYERS

    def matrix(self) -> dict[str, dict[str, int]]:
        """fault class -> {count, invariants, deadlock, simulation,
        [oracle,] escaped} detection counts."""
        layers = self._layers()

        def empty_row() -> dict[str, int]:
            return {"count": 0, **{layer: 0 for layer in layers},
                    "escaped": 0}

        out: dict[str, dict[str, int]] = {}
        for cls in self.classes:
            out[cls] = empty_row()
        for r in self.reports:
            row = out.setdefault(r.fault_class, empty_row())
            row["count"] += 1
            row[r.detected_by or "escaped"] += 1
        return out

    def totals(self) -> dict:
        """Campaign-wide counts and rates."""
        n = self.count
        by_layer = {layer: sum(1 for r in self.reports
                               if r.detected_by == layer)
                    for layer in self._layers()}
        escaped = sum(1 for r in self.reports if not r.caught)
        pre_sim = by_layer["invariants"] + by_layer["deadlock"]
        return {
            "count": n,
            **by_layer,
            "escaped": escaped,
            "crashed": sum(1 for r in self.reports
                           if r.outcome == "crashed"),
            "timeout": sum(1 for r in self.reports
                           if r.outcome == "timeout"),
            "pre_sim_rate": round(pre_sim / n, 4) if n else 0.0,
            "detection_rate": round((n - escaped) / n, 4) if n else 0.0,
        } | (
            # Ground-truth bookkeeping, present only under --oracle: a
            # mutant caught *only* by exhaustive exploration is a
            # measured false negative of the three production layers.
            {"false_negatives": by_layer[ORACLE_LAYER],
             "false_negative_rate": (round(by_layer[ORACLE_LAYER] / n, 4)
                                     if n else 0.0)}
            if self.oracle else {}
        ) | (
            # Repair bookkeeping, present only under --repair: how many
            # deadlock-caught mutants got a fix proposed and how many of
            # those fixes survived full re-verification.
            {"repair_attempted": sum(1 for r in self.reports
                                     if r.repair is not None),
             "repaired": sum(1 for r in self.reports
                             if _repair_ok(r.repair))}
            if self.repair else {}
        )

    def to_dict(self) -> dict:
        """The detection-matrix report (``BENCH_mutation.json`` format).
        The ``oracle`` key appears only for oracle campaigns, keeping
        plain matrices byte-identical to pre-oracle code versions."""
        d = {
            "schema": MATRIX_SCHEMA,
            "seed": self.seed,
            "count": self.count,
            "assignment": self.assignment,
            "classes": list(self.classes),
        }
        if self.variant != "mesi":
            # Only stamped off-baseline: MESI matrices stay byte-identical
            # to every pre-family code version.
            d["variant"] = self.variant
        if self.oracle:
            d["oracle"] = dict(self.oracle)
        if self.repair:
            d["repair"] = dict(self.repair)
        d |= {
            "matrix": self.matrix(),
            "totals": self.totals(),
            "mutants": [r.to_dict() for r in self.reports],
        }
        return d

    def render(self) -> str:
        """Human-readable detection matrix."""
        variant = f"variant={self.variant} " if self.variant != "mesi" else ""
        lines = [f"mutation campaign: seed={self.seed} count={self.count} "
                 f"assignment={self.assignment} {variant}"
                 f"({self.wall_seconds:.2f}s)"]
        oracle_col = f"{'oracle':>8}" if self.oracle else ""
        header = (f"{'fault class':<22}{'n':>4}{'invariants':>12}"
                  f"{'deadlock':>10}{'simulation':>12}{oracle_col}"
                  f"{'escaped':>9}")
        lines.append(header)

        def fmt(label: str, row: dict) -> str:
            oracle_cell = (f"{row[ORACLE_LAYER]:>8}" if self.oracle else "")
            return (f"{label:<22}{row['count']:>4}{row['invariants']:>12}"
                    f"{row['deadlock']:>10}{row['simulation']:>12}"
                    f"{oracle_cell}{row['escaped']:>9}")

        matrix = self.matrix()
        for cls, row in matrix.items():
            lines.append(fmt(cls, row))
        t = self.totals()
        lines.append(fmt("total", t))
        pre = t["invariants"] + t["deadlock"]
        lines.append(f"caught before simulation: {pre}/{t['count']} "
                     f"({t['pre_sim_rate'] * 100:.1f}%), overall "
                     f"{t['count'] - t['escaped']}/{t['count']} "
                     f"({t['detection_rate'] * 100:.1f}%)")
        if self.oracle:
            cfg = self.oracle
            lines.append(
                f"oracle (bounded exploration, depth={cfg.get('depth')} "
                f"nodes={cfg.get('nodes')}): {t['false_negatives']} "
                f"false negative(s) of the static+simulation layers "
                f"({t['false_negative_rate'] * 100:.1f}%)")
        if self.repair is not None:
            attempted = [r for r in self.reports if r.repair is not None]
            repaired = sum(1 for r in attempted if _repair_ok(r.repair))
            lines.append(
                f"repair stage (rounds={self.repair.get('rounds')}, "
                f"oracle_depth={self.repair.get('oracle_depth')}): "
                f"{repaired}/{len(attempted)} deadlock-caught mutants "
                f"repaired and re-verified")
            for r in attempted:
                if _repair_ok(r.repair):
                    fixes = "; ".join(
                        f.get("description", f.get("kind", "?"))
                        for f in r.repair.get("fixes", []))
                    lines.append(f"  #{r.mutant_id} repaired: "
                                 f"{fixes or 'no fix needed'}")
                else:
                    why = r.repair.get("error", "fixes failed re-verification")
                    lines.append(f"  #{r.mutant_id} unrepaired: {why}")
        if self.resumed:
            lines.append(f"resumed from journal: {self.resumed} mutants "
                         f"restored, {t['count'] - self.resumed} executed")
        escaped = [r for r in self.reports
                   if not r.caught and r.outcome == "ok"]
        if escaped:
            lines.append("escaped mutants:")
            for r in escaped:
                lines.append(f"  #{r.mutant_id} {r.fault_class}: "
                             f"{r.description}")
        failures = [r for r in self.reports if r.outcome != "ok"]
        if failures:
            lines.append("worker failures (no verdict):")
            for r in failures:
                lines.append(f"  #{r.mutant_id} {r.fault_class} "
                             f"[{r.outcome}]: {r.detail}")
        return "\n".join(lines)


def _repair_ok(repair: Optional[dict]) -> bool:
    """Whether a repair-stage outcome counts as a full repair: the search
    converged *and* every applied fix survived re-verification."""
    return bool(repair and repair.get("success")
                and all(v.get("ok") for v in repair.get("reverified", [])))


def _detected(mutation: Mutation, layer: Optional[str], detail: str,
              t0: float, repair: Optional[dict] = None) -> DetectionReport:
    return DetectionReport(
        mutant_id=mutation.mutant_id,
        fault_class=mutation.fault_class,
        target=mutation.target,
        description=mutation.description,
        detected_by=layer,
        detail=detail,
        seconds=time.perf_counter() - t0,
        repair=repair,
    )


def _attempt_repair(system, assignment: str, cfg: dict) -> dict:
    """The optional fifth stage: propose channel-assignment fixes for a
    deadlock-caught mutant and re-verify each one.

    Runs on the *live mutated system* (so in-memory channel moves are
    part of the V being repaired, exactly as the deadlock layer saw it).
    Every applied fix is re-checked through the invariant suite, one
    full deadlock analysis, and — when ``oracle_depth`` > 0 — a bounded
    exhaustive exploration of the repaired assignment.  A repair failure
    never changes the detection verdict; it is recorded alongside it."""
    from ..core.repair import DeadlockRepairer

    tracer = get_tracer()
    tracer.incr("repair.campaign.attempted")
    try:
        repairer = DeadlockRepairer.for_system(system, assignment)
        result = repairer.search(max_rounds=cfg.get("rounds", 4))
        repairer.reverify(result, oracle_depth=cfg.get("oracle_depth", 0))
        out = result.to_dict()
    except (DatabaseError, MissingAssignmentError, LookupError,
            ValueError) as exc:
        tracer.incr("repair.campaign.errors")
        return {"success": False,
                "error": f"{type(exc).__name__}: {exc}".splitlines()[0]}
    if _repair_ok(out):
        tracer.incr("repair.campaign.repaired")
    else:
        tracer.incr("repair.campaign.unrepaired")
    return out


def _crashed_report(mutation: Mutation, exc: Exception,
                    seconds: float) -> DetectionReport:
    """The report for a mutant whose run raised outside the detection
    taxonomy: no verdict, not a detection, but the campaign keeps its
    slot."""
    return DetectionReport(
        mutant_id=mutation.mutant_id,
        fault_class=mutation.fault_class,
        target=mutation.target,
        description=mutation.description,
        detected_by=None,
        detail=f"{type(exc).__name__}: {exc}".splitlines()[0],
        seconds=seconds,
        outcome="crashed",
    )


@dataclass(frozen=True)
class MutantTemplate:
    """What every mutant shares, derived once from the clean system: its
    ``snapshot``, the ``system`` each clone attaches from, and the
    layer-1 ``checker``, the member's suite and then the audits."""

    snapshot: bytes
    system: object
    checker: InvariantChecker

    @classmethod
    def of(cls, system) -> "MutantTemplate":
        """The template of a clean system with its clean copies written
        (extending a bound copy of its suite leaves the suite alone)."""
        checker = system.invariant_checker()
        checker.extend(audits.structural_invariants(system))
        return cls(system.db.snapshot(), system, checker)

    def failed_checks(self, system,
                      tables: Optional[Sequence[str]] = None) -> list[str]:
        """Names of the layer-1 checks ``system`` fails (with ``tables``,
        of those reading one): suite, then determinism, then audits."""
        report = self.checker.bound_to(system.db).check_all(
            "layer 1", tables=tables)
        results = (*report.results, *system.check_determinism(tables=tables))
        failed = [r.name for r in results if not r.passed]
        # A stable sort moves the audits behind the determinism checks.
        return sorted(failed, key=lambda name: name.startswith("audit-"))


def _run_mutant(template: MutantTemplate, mutation: Mutation,
                assignment: str, clean_cycles: frozenset, sim_ops: int,
                oracle: Optional[dict] = None,
                repair: Optional[dict] = None) -> DetectionReport:
    """Clone the template, apply one mutation, and run the three layers
    (four with ``oracle``: bounded exhaustive exploration re-scores a
    mutant that survived everything else, turning "escaped" into either
    a ground-truth miss or a confirmed false negative; five with
    ``repair``: deadlock-caught mutants — whether by the VCG layer or by
    an oracle deadlock — additionally get candidate fixes proposed,
    re-verified, and ranked by cost via :func:`_attempt_repair`).

    A :class:`DatabaseError` from the invariant sweep or the deadlock
    analysis is that layer's detection, reported the first time it
    occurs."""
    from ..sim import figure2_scenario, random_workload
    from ..sim.models import SimProtocolError
    from ..sim.system import CoherenceError

    t0 = time.perf_counter()
    with span("mutate.clone", mutant=mutation.mutant_id):
        db = ProtocolDatabase.deserialize(template.snapshot)
        system = template.system.attach(db)
    with db:
        with span("mutate.apply", mutant=mutation.mutant_id):
            mutation.apply_to(system)

        # Layer 1: the checks that read a table the mutation wrote (one
        # sweep, then determinism): every other check passed on the clean
        # template, as did the unchanged rows that row-local checks skip.
        with span("mutate.invariants", mutant=mutation.mutant_id):
            try:
                failed = template.failed_checks(system, mutation.tables)
            except DatabaseError as exc:
                return _detected(
                    mutation, "invariants",
                    f"checker error: {exc}".splitlines()[0], t0)
        if failed:
            return _detected(
                mutation, "invariants",
                f"{len(failed)} checks failed: {', '.join(failed[:4])}", t0)

        # Layer 2: VCG deadlock analysis against the clean cycle set.
        def _repaired() -> Optional[dict]:
            # Stage 5, attached to every deadlock-layer detection (and
            # to oracle deadlocks below) when the campaign asked for it.
            return (_attempt_repair(system, assignment, repair)
                    if repair is not None else None)

        with span("mutate.deadlock", mutant=mutation.mutant_id):
            try:
                analysis = system.analyze_deadlocks(
                    assignment, table_name="__mut_dep")
                cycles = frozenset(tuple(c) for c in analysis.cycles())
            except MissingAssignmentError as exc:
                return _detected(mutation, "deadlock",
                                 f"missing V entry: {exc}", t0,
                                 repair=_repaired())
            except DatabaseError as exc:
                return _detected(
                    mutation, "deadlock",
                    f"analysis error: {exc}".splitlines()[0], t0,
                    repair=_repaired())
        if cycles != clean_cycles:
            new = sorted(cycles - clean_cycles)
            gone = len(clean_cycles - cycles)
            detail = f"{len(new)} new VCG cycles"
            if new:
                detail += f": {' -> '.join(new[0])}"
            if gone:
                detail += f"; {gone} clean cycles vanished"
            return _detected(mutation, "deadlock", detail, t0,
                             repair=_repaired())

        # Layer 3: short simulation workloads.
        with span("mutate.simulate", mutant=mutation.mutant_id):
            try:
                for workload in (
                    figure2_scenario(system, assignment=assignment),
                    random_workload(system, assignment=assignment,
                                    seed=1, n_ops=sim_ops),
                ):
                    result = workload.run()
                    if result.status != "quiescent":
                        return _detected(
                            mutation, "simulation",
                            f"{workload.description}: {result.status} "
                            f"after {result.steps} steps", t0)
                    workload.simulator.check_directory_agreement()
            except (LookupError_, SimProtocolError, CoherenceError,
                    DatabaseError) as exc:
                return _detected(
                    mutation, "simulation",
                    f"{type(exc).__name__}: {exc}".splitlines()[0], t0)

        # Layer 4 (optional): the exploration oracle.  Runs on the same
        # live system object so in-memory mutations (channel moves) are
        # part of what gets explored, not just the table edits.
        if oracle is not None:
            from ..explore import oracle_check
            with span("mutate.oracle", mutant=mutation.mutant_id):
                verdict = oracle_check(
                    system, assignment=assignment,
                    depth=oracle["depth"], nodes=oracle["nodes"],
                    lines=oracle.get("lines", 1))
            if verdict.caught:
                fixed = (_repaired() if verdict.kind == "deadlock"
                         else None)
                return _detected(mutation, ORACLE_LAYER, verdict.detail,
                                 t0, repair=fixed)

        return _detected(mutation, None, "", t0)


def run_campaign(
    system=None,
    seed: int = 0,
    count: int = 50,
    classes: Optional[Sequence[str]] = None,
    assignment: str = "v5d",
    variant: Optional[str] = None,
    workers: int = 1,
    sim_ops: int = 40,
    journal_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    oracle: Optional[str] = None,
    oracle_depth: int = 8,
    oracle_nodes: int = 2,
    oracle_lines: int = 1,
    repair: bool = False,
    repair_rounds: int = 4,
    repair_oracle_depth: int = 0,
) -> CampaignResult:
    """Sample ``count`` mutants and measure the detection matrix.

    ``oracle="explore"`` adds a fourth, ground-truth stage: every mutant
    that survives the three production layers is re-scored by bounded
    exhaustive exploration (``oracle_depth``/``oracle_nodes``/
    ``oracle_lines``), the matrix gains an ``oracle`` column, and the
    totals gain a measured false-negative rate.  The clean system must
    explore violation-free under the same bounds (verified up front —
    its exploration summary is written to the ``__explore_summary``
    table so ``--save-db`` snapshots carry the ground-truth baseline).

    ``system`` defaults to a freshly generated one; when supplied it must
    be clean (the campaign verifies this) and gains the audit reference
    tables as a side effect.  Mutants run inline, one after another;
    ``workers`` accepts only 1.

    ``journal_path`` checkpoints every completed mutant to a durable
    JSONL journal; ``resume_from`` restores completions from such a
    journal (after validating the campaign parameters match), re-executes
    only the missing mutants, and keeps appending to the same journal
    unless a different ``journal_path`` is given.  Sampling is
    deterministic, so a resumed campaign's matrix is identical to an
    uninterrupted run's.

    ``repair=True`` adds a fifth stage: every mutant caught by the
    deadlock layer (or escaped the production layers and then caught as
    an oracle deadlock) gets candidate channel-assignment fixes proposed
    by :class:`repro.core.repair.DeadlockRepairer`, each re-verified
    through the invariant suite, one full deadlock analysis, and — with
    ``repair_oracle_depth`` > 0 — a bounded exploration of the repaired
    V, ranked by cost, and appended to the mutant's
    :class:`DetectionReport`.  Repair outcomes are journaled with the
    verdicts, so resumed campaigns do not redo repair searches.

    ``variant`` picks the protocol-family member to mutate (default: the
    MESI baseline, or whatever family member a supplied ``system`` is);
    passing both a ``system`` and a conflicting ``variant`` is an
    error."""
    from ..protocols.family import build_variant

    t0 = time.perf_counter()
    tracer = get_tracer()
    if workers != 1:
        raise ValueError(f"workers={workers!r}: campaigns run inline "
                         f"only (workers=1)")
    if oracle is not None and oracle != "explore":
        raise ValueError(f"unknown oracle {oracle!r} (expected 'explore')")
    oracle_cfg = ({"depth": oracle_depth, "nodes": oracle_nodes,
                   "lines": oracle_lines} if oracle else None)
    repair_cfg = ({"rounds": repair_rounds,
                   "oracle_depth": repair_oracle_depth} if repair else None)
    with span("mutate.campaign", count=count, seed=seed,
              assignment=assignment):
        if system is None:
            system = build_variant(variant or "mesi")
        else:
            system_variant = getattr(
                getattr(system, "spec", None), "key", "mesi")
            if variant is not None and variant != system_variant:
                raise ValueError(
                    f"variant={variant!r} conflicts with the supplied "
                    f"system's family member {system_variant!r}")
            variant = system_variant
        variant = variant or "mesi"
        audits.prepare_reference_tables(system)

        engine = MutationEngine(system, seed=seed, classes=classes,
                                assignment=assignment)
        mutations = engine.sample(count)

        # ``count`` stays out of the header: the mutant stream is
        # prefix-stable, so resuming with a larger --count is legitimate.
        header = {
            "kind": JOURNAL_KIND,
            "seed": seed,
            "assignment": assignment,
            "classes": list(engine.classes),
            "sim_ops": sim_ops,
        }
        if variant != "mesi":
            # Absent for the baseline so pre-family journals resume.
            header["variant"] = variant
        if oracle_cfg:
            # Oracle verdicts depend on the exploration bounds, so a
            # journal written under one oracle config must not seed a
            # campaign run under another (or under none).
            header["oracle"] = oracle_cfg
        if repair_cfg:
            # Repair outcomes live inside the journaled reports, so a
            # journal written without (or with a different) repair config
            # must not seed this run.  Absent by default so pre-repair
            # journals keep resuming.
            header["repair"] = repair_cfg
        completed: dict[int, dict] = {}
        if resume_from is not None:
            journal_header, units = load_journal(resume_from)
            check_header(resume_from, journal_header, header)
            completed = {int(i): data for i, data in units.items()}
            if journal_path is None:
                journal_path = resume_from

        # The clean checks anchor every comparison and compile the sweep;
        # the copies the audits trust must meet the conjunctions too (a
        # hand-edited --db need not).  Refuse a baseline that fails.
        template = MutantTemplate.of(system)
        if (template.failed_checks(system)
                or audits.nonconforming_tables(system)):
            raise ValueError(
                "the clean system already fails its invariants/audits; "
                "mutation detection would be meaningless")
        clean_cycles = frozenset(
            tuple(c) for c in system.analyze_deadlocks(
                assignment, table_name="__mut_clean_dep").cycles())

        if oracle_cfg:
            # The oracle is only ground truth if the clean system is
            # violation-free under the same bounds; its exploration
            # summary lands in ``__explore_summary`` (after the template's
            # snapshot, so clones stay lean) for --save-db round-trips.
            from ..explore import ReachabilityExplorer, ExploreConfig
            clean_explorer = ReachabilityExplorer(system, ExploreConfig(
                nodes=oracle_nodes, depth=oracle_depth, lines=oracle_lines,
                assignment=assignment))
            clean_explore = clean_explorer.run()
            if not clean_explore.ok:
                first = clean_explore.violations[0]
                raise ValueError(
                    f"the clean system violates under exploration "
                    f"(depth={oracle_depth}, nodes={oracle_nodes}): "
                    f"{first.kind}: {first.detail}; the oracle column "
                    f"would be meaningless")
            clean_explorer.write_summary(system.db, clean_explore)

        restored = [DetectionReport.from_dict(completed[m.mutant_id])
                    for m in mutations if m.mutant_id in completed]
        pending = [m for m in mutations if m.mutant_id not in completed]

        journal = (CheckpointJournal.open(journal_path, header)
                   if journal_path else None)
        run_id = new_run_id() if tracer.enabled else None
        matrix = {layer: 0 for layer in (*LAYERS, ORACLE_LAYER)}
        matrix["escaped"] = 0
        done = 0
        tracer.emit("campaign.started", run_id=run_id, kind=JOURNAL_KIND,
                    seed=seed, assignment=assignment,
                    total=len(mutations), pending=len(pending),
                    resumed=len(restored))
        executed: list[DetectionReport] = []
        try:
            def _progress(report: DetectionReport) -> None:
                # Lifecycle events for live observers (``repro watch``,
                # --trace-out): one ``campaign.unit`` verdict per
                # mutant plus the running partial detection matrix.
                nonlocal done
                done += 1
                matrix[report.detected_by or "escaped"] += 1
                tracer.emit("campaign.unit", run_id=run_id,
                            unit_id=report.mutant_id,
                            fault_class=report.fault_class,
                            detected_by=report.detected_by,
                            outcome=report.outcome,
                            seconds=report.seconds)
                tracer.emit("campaign.progress", run_id=run_id,
                            done=done, total=len(mutations), **matrix)

            for report in restored:
                _progress(report)

            for mutation in pending:
                unit_id = mutation.mutant_id
                tracer.emit("unit.started", run_id=run_id, unit_id=unit_id,
                            worker_id=INLINE_WORKER)
                t1 = time.perf_counter()
                with use_context(TraceContext(run_id or "", unit_id,
                                              INLINE_WORKER)):
                    try:
                        report = _run_mutant(
                            template, mutation, assignment, clean_cycles,
                            sim_ops, oracle_cfg, repair_cfg)
                    except Exception as exc:  # Ctrl-C still stops the run
                        report = _crashed_report(
                            mutation, exc, time.perf_counter() - t1)
                tracer.emit("unit.finished", run_id=run_id,
                            unit_id=unit_id, worker_id=INLINE_WORKER,
                            outcome=report.outcome,
                            seconds=time.perf_counter() - t1)
                executed.append(report)
                # Durable before the next mutant starts: an interrupted
                # run resumes right after this one.
                if journal is not None:
                    journal.record(unit_id, report.to_dict())
                _progress(report)
        finally:
            if journal is not None:
                journal.close()

        reports = sorted((*restored, *executed),
                         key=lambda r: r.mutant_id)

        tracer.incr("mutate.mutants", len(reports))
        if restored:
            tracer.incr("runtime.resumed_units", len(restored))
        for r in executed:
            if r.outcome != "ok":
                tracer.incr(f"runtime.{r.outcome}")
        for r in reports:
            tracer.incr(f"mutate.detected.{r.detected_by}"
                        if r.caught else "mutate.escaped")
        result = CampaignResult(
            seed=seed,
            assignment=assignment,
            classes=engine.classes,
            variant=variant,
            reports=reports,
            wall_seconds=time.perf_counter() - t0,
            resumed=len(restored),
            oracle=oracle_cfg,
            repair=repair_cfg,
        )
        tracer.gauge("mutate.pre_sim_rate", result.totals()["pre_sim_rate"])
        return result


def compare_to_baseline(current: dict, baseline: dict) -> list[str]:
    """Detection regressions of ``current`` vs a committed baseline.

    Returns human-readable failure strings (empty = no regression).  The
    comparison is per mutant: sampling is deterministic and prefix-stable,
    so mutant *i* of a ``--count 25`` smoke run is mutant *i* of the
    committed ``--count 50`` baseline.  A mutant counts as regressed when
    it is now caught at a *later* layer than the baseline recorded (or
    escapes).  Baselines from a different seed/assignment/classes cannot
    be compared and are reported as failures outright."""
    failures: list[str] = []
    if baseline.get("schema") != MATRIX_SCHEMA:
        return [f"baseline has schema {baseline.get('schema')!r}, "
                f"expected {MATRIX_SCHEMA!r}"]
    for key in ("seed", "assignment", "classes", "variant", "oracle",
                "repair"):
        if baseline.get(key) != current.get(key):
            failures.append(
                f"campaign parameter {key!r} differs from baseline "
                f"({current.get(key)!r} vs {baseline.get(key)!r}); "
                f"regenerate the baseline")
    if failures:
        return failures
    base_mutants = baseline.get("mutants", [])
    for cur in current.get("mutants", []):
        i = cur["mutant_id"]
        if i >= len(base_mutants):
            continue  # beyond the committed campaign; nothing to gate
        base = base_mutants[i]
        if (base.get("fault_class") != cur["fault_class"]
                or base.get("description") != cur["description"]):
            failures.append(
                f"mutant #{i} diverged from baseline "
                f"({cur['fault_class']}: {cur['description']!r} vs "
                f"{base.get('fault_class')}: {base.get('description')!r}); "
                f"regenerate the baseline")
            continue
        cur_rank = _LAYER_RANK.get(cur.get("detected_by"),
                                   _LAYER_RANK[None])
        base_rank = _LAYER_RANK.get(base.get("detected_by"),
                                    _LAYER_RANK[None])
        if cur_rank > base_rank:
            now = cur.get("detected_by") or "ESCAPED"
            was = base.get("detected_by") or "ESCAPED"
            failures.append(
                f"mutant #{i} ({cur['fault_class']}: {cur['description']}) "
                f"was caught by {was}, now {now}")
            continue
        if _repair_ok(base.get("repair")) and not _repair_ok(
                cur.get("repair")):
            # Repair regressions gate too: a mutant the baseline campaign
            # repaired (with every fix re-verified) must stay repairable.
            why = (cur.get("repair") or {}).get(
                "error", "fixes no longer pass re-verification")
            failures.append(
                f"mutant #{i} ({cur['fault_class']}: {cur['description']}) "
                f"was repaired and re-verified, now is not ({why})")
    return failures
