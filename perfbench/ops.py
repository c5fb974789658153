"""The benchmark's three workloads: one op each, and the verdict it must
reach.

Every op starts from a fresh clone of the generated MESI system, made by
``ProtocolDatabase.deserialize`` of the set-up snapshot, and closes the
clone when it ends, so no op sees what an earlier one wrote.  ``run``
returns the op's outcome (verdicts and exact work counts, identical on
every op of a run) and its timings; ``check`` lists every way the
outcome differs from the committed results.

* ``verify`` — the designer's check pass after a table edit: every
  read-only layer (invariants, the v4/v5/v5d deadlock analysis, the
  hardware mapping, simulation, and a cold compiled exploration) on
  clean tables.  The explorer does about half the work.
* ``repair`` — the paper's Figure 4 fix, searched and re-verified from
  the pre-fix v5.  The deadlock analyses, on the snapshot-compose path
  with two threads, take about 99% of the op (the ``core.deadlock``
  spans the op wraps around them).
* ``campaign`` — the committed 50-mutant campaign on one worker: tables
  are mutated, written and cloned per mutant, and the invariant layer
  catches 47 of 50.  It skips the snapshot path that ``repair`` takes.
"""

from __future__ import annotations

import contextlib
import json
import statistics

from repro.core.database import ProtocolDatabase
from repro.core.deadlock import DeadlockAnalysis, DeadlockAnalyzer
from repro.core.repair import DeadlockRepairer
from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.faults import compare_to_baseline, run_campaign
from repro.protocols.asura import AsuraSystem, build_system
from repro.protocols.asura.hardware import build_hardware_mapping
from repro.sim import figure2_scenario, random_workload

__all__ = ["WORKLOADS", "build_system", "table_names"]

#: the seed of the pinned random simulation; on other seeds the
#: simulation only has to drain.
DEFAULT_SEED = 0

ASSIGNMENTS = ("v4", "v5", "v5d")

#: ``verify`` outcome on the committed tables, except the random
#: simulation, which depends on the seed (this is its seed-0 result).
PINNED_VERIFY = {
    "invariants": {"checks": 92, "passed": True},
    "deadlock": {"v4": {"rows": 2041, "cycles": 5},
                 "v5": {"rows": 2017, "cycles": 3},
                 "v5d": {"rows": 1947, "cycles": 0}},
    "mapping_preserved": True,
    "fig2": {"status": "quiescent", "steps": 7, "messages": 8},
    "random": {"status": "quiescent", "steps": 80, "messages": 317},
    "explore": {"states": 1824, "transitions": 3833, "ok": True},
}


def table_names(db: ProtocolDatabase) -> list[str]:
    return sorted(r["name"] for r in db.connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"))


def _clone(snapshot: bytes, spans) -> AsuraSystem:
    with spans.span("core.clone"):
        return AsuraSystem.from_database(ProtocolDatabase.deserialize(snapshot))


def _sim(result) -> dict:
    return {"status": result.status, "steps": result.steps,
            "messages": result.messages}


@contextlib.contextmanager
def _deadlock_probe(spans):
    """Wrap every deadlock analysis and cycle search the repairer makes
    in a ``core.deadlock`` span, and count the analyses, their
    dependency rows and the cycles found.  The repairer calls both from
    the op's own thread; the wrappers come off when the op ends."""
    counts = {"calls": 0, "rows": 0, "cycles": 0}
    analyze, cycles = DeadlockAnalyzer.analyze, DeadlockAnalysis.cycles

    def probed_analyze(self, *args, **kwargs):
        with spans.span("core.deadlock"):
            analysis = analyze(self, *args, **kwargs)
        counts["calls"] += 1
        counts["rows"] += analysis.n_rows
        return analysis

    def probed_cycles(self):
        with spans.span("core.deadlock"):
            found = cycles(self)
        counts["cycles"] += len(found)
        return found

    DeadlockAnalyzer.analyze = probed_analyze
    DeadlockAnalysis.cycles = probed_cycles
    try:
        yield counts
    finally:
        DeadlockAnalyzer.analyze = analyze
        DeadlockAnalysis.cycles = cycles


class Verify:
    """Every read-only layer, once, on clean tables."""

    #: the threads the op mostly runs on, which picks the reading of
    #: the reference kernel its time is adjusted by.
    threads = 1

    def __init__(self, root, seed: int) -> None:
        self.seed = seed

    def run(self, snapshot: bytes, spans) -> tuple[dict, dict]:
        system = _clone(snapshot, spans)
        try:
            with spans.span("core.invariants"):
                report = system.check_invariants()
            deadlock = {}
            for assignment in ASSIGNMENTS:
                with spans.span("core.deadlock"):
                    analysis = system.analyze_deadlocks(assignment)
                    deadlock[assignment] = {"rows": analysis.n_rows,
                                            "cycles": len(analysis.cycles())}
            with spans.span("core.mapping"):
                preserved = build_hardware_mapping(
                    system.db, system.tables["D"],
                    system.constraint_sets["D"]).check_preserved().passed
            with spans.span("sim"):
                fig2 = figure2_scenario(system, assignment="v5d").run()
            with spans.span("sim"):
                rand = random_workload(system, assignment="v5d", n_ops=100,
                                       seed=self.seed).run()
            with spans.span("explore"):
                explorer = ReachabilityExplorer(system, ExploreConfig(
                    nodes=2, depth=16, assignment="v5d", kernel="compiled"))
                try:
                    explored = explorer.run()
                finally:
                    explorer.close()
        finally:
            system.db.close()
        return {
            "invariants": {"checks": len(report.results),
                           "passed": report.passed},
            "deadlock": deadlock,
            "mapping_preserved": preserved,
            "fig2": _sim(fig2),
            "random": _sim(rand),
            "explore": {"states": explored.states,
                        "transitions": explored.transitions,
                        "ok": explored.ok},
        }, {}

    def check(self, outcome: dict) -> list[str]:
        expected = dict(PINNED_VERIFY)
        if self.seed != DEFAULT_SEED:
            # Another seed drives other traffic; it must still drain.
            expected["random"] = dict(outcome["random"], status="quiescent")
        return [f"{key}: {outcome.get(key)!r} != pinned {value!r}"
                for key, value in expected.items()
                if outcome.get(key) != value]

    @staticmethod
    def layer_counts(outcome: dict) -> dict[str, float]:
        sims = (outcome["fig2"], outcome["random"])
        deadlock = outcome["deadlock"].values()
        return {
            "explore.states": outcome["explore"]["states"],
            "explore.transitions": outcome["explore"]["transitions"],
            "sim.steps": sum(s["steps"] for s in sims),
            "sim.messages": sum(s["messages"] for s in sims),
            "core.invariants.checks": outcome["invariants"]["checks"],
            "core.deadlock.calls": len(ASSIGNMENTS),
            "core.deadlock.dependency_rows": sum(d["rows"] for d in deadlock),
            "core.deadlock.cycles": sum(d["cycles"] for d in deadlock),
        }


class Repair:
    """The Figure 4 fix: search from v5, then re-verify with the
    depth-4 oracle.  The seed does not enter; the committed result is
    checked on every seed."""

    threads = 2

    def __init__(self, root, seed: int) -> None:
        with open(root / "BENCH_repair.json", encoding="utf-8") as fh:
            self.expected = json.load(fh)["repair"]

    def run(self, snapshot: bytes, spans) -> tuple[dict, dict]:
        system = _clone(snapshot, spans)
        try:
            with _deadlock_probe(spans) as deadlock:
                repairer = DeadlockRepairer.for_system(system, "v5")
                with spans.span("core.repair.search"):
                    result = repairer.search(max_rounds=4)
                with spans.span("core.repair.reverify"):
                    repairer.reverify(result, oracle_depth=4)
            # The repairer keeps one dependency table per analysis; a
            # count, not a verdict, so that fixing the leak passes.
            leaked = sum(1 for n in table_names(system.db)
                         if n.startswith("pdt_repair_"))
        finally:
            system.db.close()
        return {"repair": result.to_dict(), "tables_leaked": leaked,
                "deadlock": deadlock}, {}

    def check(self, outcome: dict) -> list[str]:
        if outcome["repair"] != self.expected:
            return [f"repair result {outcome['repair']!r} differs from "
                    f"BENCH_repair.json"]
        return []

    @staticmethod
    def layer_counts(outcome: dict) -> dict[str, float]:
        deadlock = outcome["deadlock"]
        return {
            "core.repair.evaluated": outcome["repair"]["evaluated"],
            "core.repair.tables_leaked": outcome["tables_leaked"],
            "core.deadlock.calls": deadlock["calls"],
            "core.deadlock.dependency_rows": deadlock["rows"],
            "core.deadlock.cycles": deadlock["cycles"],
        }


class Campaign:
    """The committed 50-mutant campaign (seed 0) on one worker.

    The seed does not enter: which mutants a seed samples changes the
    op's cost by up to half (3.2 to 4.75 s over seeds 0-7, because
    relax-constraint mutants regenerate a whole table), which would
    swamp any bound between runs of different seeds.  ``workers=1``
    because the default of 4 threads exceeds the two cores this
    benchmark was tuned on, and because traced CLI campaigns drop to one
    worker anyway."""

    threads = 1

    def __init__(self, root, seed: int) -> None:
        with open(root / "BENCH_mutation.json", encoding="utf-8") as fh:
            self.baseline = json.load(fh)

    def run(self, snapshot: bytes, spans) -> tuple[dict, dict]:
        system = _clone(snapshot, spans)
        try:
            with spans.span("faults.campaign"):
                result = run_campaign(system, seed=self.baseline["seed"],
                                      count=self.baseline["count"],
                                      workers=1)
        finally:
            system.db.close()
        return result.to_dict(), {"mutant_p50_s": statistics.median(
            r.seconds for r in result.reports)}

    def check(self, outcome: dict) -> list[str]:
        return compare_to_baseline(outcome, self.baseline)

    @staticmethod
    def layer_counts(outcome: dict) -> dict[str, float]:
        totals = outcome["totals"]
        return {
            "faults.mutants": totals["count"],
            **{f"faults.detected.{k}": totals[k]
               for k in ("invariants", "deadlock", "simulation", "escaped")},
        }


WORKLOADS = {"verify": Verify, "repair": Repair, "campaign": Campaign}
