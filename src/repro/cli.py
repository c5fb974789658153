"""Command-line interface: the paper's push-button flow.

    python -m repro stats                  # protocol statistics
    python -m repro check                  # invariants + determinism
    python -m repro deadlock --assignment v5
    python -m repro simulate --workload fig4 --assignment v5
    python -m repro simulate --workload random --ops 200 --coverage
    python -m repro map                    # section-5 hardware mapping
    python -m repro codegen M --verilog    # generated controller code
    python -m repro mutate --seed 0 --count 50   # fault-injection campaign
    python -m repro explore --nodes 2 --depth 12 # bounded reachability
    python -m repro explore --assignment v5 --lines 2 --depth 13  # Figure 4
    python -m repro watch campaign.journal       # live view of a run
    python -m repro family --variant moesi       # one member, full pipeline
    python -m repro family --all --matrix-out BENCH_family.json

Every subcommand (except ``watch``, which only observes) also accepts
the telemetry flags ``--profile`` (human text summary), ``--trace-out
events.jsonl`` (JSONL event stream, flushed per event so ``repro watch``
sees it live), ``--report-out report.json`` (machine-readable run
report), and ``--quiet`` (suppress the normal human output) — see
``docs/OBSERVABILITY.md`` — plus the database flags ``--db PATH``
(attach to an existing generated database file) and ``--save-db PATH``
(generate into a file for later ``--db`` runs).

Every system-building subcommand also accepts ``--variant KEY`` to work
on a protocol-family member other than the MESI baseline (MOESI, MESIF,
and the axis variants — see ``docs/PROTOCOL_FAMILY.md``); ``--db`` files
carry their member in a marker table, so attaching never needs the flag.
``family`` runs the whole differential pipeline (invariants, deadlock
arcs, simulation, bounded exploration, a seeded oracle campaign) for one
member or every member, and emits the cross-family benchmark matrix.

``mutate`` runs every mutant inline, one after another, and checkpoints
through the crash-safe runtime: ``--journal`` records each completed
mutant, and ``--resume`` restarts an interrupted campaign after the last
completed mutant — see ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def _telemetry_parent() -> argparse.ArgumentParser:
    """The telemetry flags shared by every subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("telemetry")
    g.add_argument("--profile", action="store_true",
                   help="print a telemetry summary (spans, SQL, counters)")
    g.add_argument("--trace-out", metavar="PATH", default=None,
                   help="stream every telemetry event to PATH as JSONL")
    g.add_argument("--report-out", metavar="PATH", default=None,
                   help="write the machine-readable JSON run report to PATH")
    g.add_argument("--quiet", action="store_true",
                   help="suppress the command's normal output")
    d = common.add_argument_group("database")
    d.add_argument("--db", metavar="PATH", default=None,
                   help="attach to an existing generated protocol database "
                        "file instead of regenerating (error if missing)")
    d.add_argument("--save-db", metavar="PATH", default=None,
                   help="generate the protocol into a database file at PATH "
                        "(reusable later via --db)")
    from .protocols.family import SPECS
    d.add_argument("--variant", metavar="KEY", choices=tuple(SPECS),
                   default=None,
                   help="protocol-family member to generate "
                        f"({', '.join(SPECS)}; default: mesi). A --db file "
                        "names its own member in a marker table; giving a "
                        "conflicting --variant is an error")
    return common


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("SQL-based early error detection for cache coherence "
                     "protocols (IPPS 2003 reproduction)"),
    )
    common = _telemetry_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", parents=[common],
                   help="protocol statistics vs the paper's")

    sub.add_parser("check", parents=[common],
                   help="run all invariants and determinism checks")

    p = sub.add_parser("deadlock", parents=[common],
                       help="static deadlock analysis")
    p.add_argument("--assignment", choices=("v4", "v5", "v5d"), default="v5")
    p.add_argument("--closure", action="store_true",
                   help="transitive closure instead of one pairwise round")
    p.add_argument("--strict", action="store_true",
                   help="require message equality when composing")

    p = sub.add_parser("simulate", parents=[common],
                       help="run the table-driven simulator")
    p.add_argument("--workload", choices=("fig2", "fig4", "random"),
                   default="random")
    p.add_argument("--assignment", choices=("v4", "v5", "v5d"), default="v5d")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--coverage", action="store_true",
                   help="report controller-table transition coverage")
    p.add_argument("--trace", action="store_true", help="print every message")
    p.add_argument("--guided", action="store_true",
                   help="coverage-guided workload: bias ops toward table "
                        "rows the persisted ledger has not seen "
                        "(overrides --workload)")
    p.add_argument("--epsilon", type=float, default=0.2, metavar="P",
                   help="exploration rate of the guided policy "
                        "(default 0.2)")

    p = sub.add_parser("repair", parents=[common],
                       help="search for channel-assignment fixes")
    p.add_argument("--assignment", choices=("v4", "v5", "v5d"), default="v5")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--oracle-depth", type=int, default=0, metavar="N",
                   help="also re-verify the final fix by bounded "
                        "exploration to depth N (default: 0 = skip the "
                        "oracle; the invariants and one full deadlock "
                        "analysis always re-verify every fix)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="checkpoint each applied fix to a crash-safe "
                        "journal at PATH; re-running with the same PATH "
                        "resumes after the last durable fix")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the closed-loop report (fixes, "
                        "re-verification verdicts, guided-vs-fixed "
                        "coverage deltas) to PATH, atomically")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="compare the closed-loop report against a "
                        "committed baseline (e.g. BENCH_repair.json) and "
                        "exit 1 on any repair/coverage regression")

    sub.add_parser("map", parents=[common],
                   help="hardware mapping of D (section 5)")

    p = sub.add_parser("codegen", parents=[common],
                       help="generate controller code")
    p.add_argument("table", choices=("D", "M", "C", "N", "RAC", "IO",
                                     "NI", "PE"))
    p.add_argument("--verilog", action="store_true",
                   help="emit Verilog instead of Python")

    p = sub.add_parser("mutate", parents=[common],
                       help="protocol mutation / fault-injection campaign")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; the mutant stream is deterministic and "
                        "prefix-stable per seed (default: %(default)s)")
    p.add_argument("--count", type=int, default=50,
                   help="number of mutants to run (default: %(default)s)")
    p.add_argument("--classes", metavar="LIST", default=None,
                   help="comma-separated fault classes (default: all; see "
                        "docs/FAULT_INJECTION.md)")
    p.add_argument("--assignment", choices=("v4", "v5", "v5d"),
                   default="v5d",
                   help="channel assignment the campaign perturbs and "
                        "analyzes (default: %(default)s)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="append a crash-safe checkpoint journal at PATH "
                        "(one fsync'd JSONL record per completed mutant)")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume an interrupted campaign from its journal: "
                        "skip journaled mutants, run the rest, keep "
                        "appending to the same journal")
    p.add_argument("--matrix-out", metavar="PATH", default=None,
                   help="write the detection-matrix JSON report to PATH "
                        "(atomically: temp file + rename)")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="compare against a committed detection matrix and "
                        "exit 1 on any detection regression")
    p.add_argument("--oracle", choices=("explore",), default=None,
                   help="ground-truth re-scoring of surviving mutants by "
                        "bounded exhaustive exploration; the matrix gains "
                        "an 'oracle' column (see docs/EXPLORATION.md)")
    p.add_argument("--oracle-depth", type=int, default=8, metavar="N",
                   help="exploration depth bound for --oracle "
                        "(default: %(default)s)")
    p.add_argument("--oracle-nodes", type=int, default=2, metavar="N",
                   help="node count for --oracle exploration "
                        "(default: %(default)s)")
    p.add_argument("--repair", action="store_true",
                   help="close the loop: propose and re-verify channel-"
                        "assignment fixes for every deadlock-caught "
                        "mutant (see docs/REPAIR.md)")
    p.add_argument("--repair-rounds", type=int, default=4, metavar="N",
                   help="max analyze-modify rounds per repaired mutant "
                        "(default: %(default)s)")
    p.add_argument("--repair-oracle-depth", type=int, default=0,
                   metavar="N",
                   help="bounded-exploration depth for re-verifying each "
                        "mutant's final fix (default: 0 = deadlock "
                        "analysis + invariants only)")

    p = sub.add_parser("explore", parents=[common],
                       help="bounded-depth exhaustive reachability "
                            "exploration of the generated tables")
    p.add_argument("--nodes", type=int, default=2,
                   help="caching nodes in the explored configuration "
                        "(default: %(default)s)")
    p.add_argument("--depth", type=int, default=10,
                   help="BFS depth bound in moves (default: %(default)s)")
    p.add_argument("--lines", type=int, default=1,
                   help="memory lines (addresses) in play "
                        "(default: %(default)s)")
    p.add_argument("--assignment", choices=("v4", "v5", "v5d"),
                   default="v5d",
                   help="channel assignment to explore under "
                        "(default: %(default)s)")
    p.add_argument("--capacity", type=int, default=1,
                   help="per-channel queue capacity (default: %(default)s)")
    p.add_argument("--quads", type=int, default=None, metavar="N",
                   help="number of quads hosting the nodes (default: "
                        "topology-derived; >2 enables quad-interchange "
                        "reduction under --symmetry full)")
    p.add_argument("--symmetry", choices=("off", "quad", "full"),
                   default=None,
                   help="symmetry reduction mode: 'quad' canonicalizes "
                        "node permutations within each quad, 'full' also "
                        "permutes interchangeable quads (default: quad)")
    p.add_argument("--journal", metavar="PATH", default=None,
                   help="checkpoint each completed depth to a crash-safe "
                        "JSONL journal at PATH")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume an interrupted exploration from its "
                        "journal, re-expanding from the last completed "
                        "depth")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the exploration result JSON to PATH "
                        "(atomically: temp file + rename)")

    p = sub.add_parser("family", parents=[common],
                       help="cross-family differential pipeline: generate "
                            "one or all members, run invariants, deadlock "
                            "arcs, simulation, bounded exploration, and a "
                            "seeded oracle campaign per member")
    p.add_argument("--all", action="store_true",
                   help="run every registered family member instead of the "
                        "one named by --variant")
    p.add_argument("--nodes", type=int, default=2, metavar="N",
                   help="caching nodes for the simulation/exploration "
                        "topology (default: %(default)s)")
    p.add_argument("--assignment", choices=("v4", "v5", "v5d"),
                   default="v5d",
                   help="channel assignment for the dynamic stages "
                        "(default: %(default)s; the deadlock stage always "
                        "sweeps all three)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign RNG seed (default: %(default)s)")
    p.add_argument("--count", type=int, default=12, metavar="N",
                   help="mutants per member in the campaign stage "
                        "(default: %(default)s)")
    p.add_argument("--explore-depth", type=int, default=6, metavar="N",
                   help="BFS depth bound of the clean-system exploration "
                        "stage (default: %(default)s)")
    p.add_argument("--oracle-depth", type=int, default=5, metavar="N",
                   help="exploration depth bound for the campaign's "
                        "ground-truth oracle (default: %(default)s)")
    p.add_argument("--skip-campaign", action="store_true",
                   help="stop after the clean-system stages (no mutation "
                        "campaign, no oracle; much faster)")
    p.add_argument("--matrix-out", metavar="PATH", default=None,
                   help="write the cross-family benchmark JSON "
                        "(BENCH_family.json format) to PATH atomically")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="compare each member's campaign against a committed "
                        "cross-family benchmark and exit 1 on any "
                        "detection regression")

    # ``watch`` is read-only and attaches to *another* process's run; it
    # takes neither the telemetry flags nor a protocol database.
    p = sub.add_parser("watch",
                       help="live view of a journaled campaign or "
                            "exploration running in another process")
    p.add_argument("journal", metavar="JOURNAL",
                   help="the run's checkpoint journal (--journal PATH on "
                        "mutate/explore)")
    p.add_argument("--events", metavar="PATH", default=None,
                   help="the run's --trace-out event stream; adds "
                        "declared totals and in-flight units to the "
                        "view")
    p.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                   help="seconds between refreshes (default: %(default)s)")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit (exit 2 if the "
                        "journal is unreadable) — the CI mode")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the snapshot as one JSON object per refresh "
                        "instead of the human block")
    return parser


def _cmd_stats(system, args) -> int:
    from .analysis.stats import collect
    stats = collect(system)
    print(f"{'quantity':<26}{'paper':<20}ours")
    for quantity, paper, ours in stats.paper_comparison():
        print(f"{quantity:<26}{paper:<20}{ours}")
    print()
    for name, s in stats.per_table.items():
        print(f"{name:<4} {s.n_rows:>4} rows x {s.n_columns:>2} columns")
    return 0


def _cmd_check(system, args) -> int:
    report = system.check_invariants()
    print(report.render())
    return 0 if report.passed else 1


def _cmd_deadlock(system, args) -> int:
    analysis = system.analyze_deadlocks(
        args.assignment,
        ignore_messages=not args.strict,
        closure=args.closure,
    )
    cycles = analysis.cycles()
    print(f"V = {args.assignment}: {len(analysis.vcg.nodes)} channels, "
          f"{len(analysis.vcg.edges)} dependencies, "
          f"{analysis.n_rows} dependency rows "
          f"({analysis.build_seconds:.2f}s)")
    if not cycles:
        print("no cycles: the assignment is deadlock-free")
        return 0
    for cycle in cycles:
        print(analysis.scenario(cycle))
    return 1


def _cmd_simulate(system, args) -> int:
    from .analysis.coverage import distinct_rows, read_ledger, write_ledger
    from .sim import (
        ensure_recorder,
        figure2_scenario,
        figure4_scenario,
        guided_workload,
        random_workload,
    )

    if args.guided:
        workload = guided_workload(system, assignment=args.assignment,
                                   seed=args.seed, n_ops=args.ops,
                                   epsilon=args.epsilon)
    elif args.workload == "fig2":
        workload = figure2_scenario(system, assignment=args.assignment)
    elif args.workload == "fig4":
        workload = figure4_scenario(system, assignment=args.assignment)
    else:
        workload = random_workload(system, assignment=args.assignment,
                                   seed=args.seed, n_ops=args.ops)
    sim = workload.simulator
    if args.coverage:
        # Coverage was decided at construction; rebuild the models' hook.
        ensure_recorder(sim)
    result = workload.run()

    print(f"{workload.description}")
    print(f"status: {result.status} after {result.steps} steps, "
          f"{result.messages} messages")
    if args.trace:
        for event in result.trace:
            print(f"  {event}")
    if result.deadlocked:
        print(result.deadlock_report)
    if args.coverage or args.guided:
        print(sim.coverage_report().render())
    if sim.recorder is not None:
        # Persist what this run exercised so the next --guided run (on
        # the same --db file) steers toward what is still unvisited.
        before = distinct_rows(read_ledger(system.db))
        total = write_ledger(system.db, sim.recorder)
        print(f"coverage ledger: {total} distinct rows "
              f"({total - before} new this run)")
    return 0 if result.status == "quiescent" else 1


def _cmd_repair(system, args) -> int:
    from .core.repair import DeadlockRepairer
    from .runtime import JournalError, atomic_write_json

    baseline = _read_baseline(args.baseline)
    # ``for_system`` binds the repairer to the loaded system — under
    # --variant that is the family member's own tables, deadlock specs,
    # and V, and re-verification (invariants, oracle) runs against the
    # member too, not the MESI baseline.
    repairer = DeadlockRepairer.for_system(system, args.assignment)
    try:
        result = repairer.search(max_rounds=args.rounds,
                                 journal_path=args.journal)
    except JournalError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    repairer.reverify(result, oracle_depth=args.oracle_depth)
    print(result.render())
    rc = 0 if result.success else 1
    if not all(v.get("ok") for v in result.reverified):
        rc = 1
    if args.report or baseline is not None:
        from .analysis.closedloop import (build_repair_report,
                                          compare_repair_baseline)
        report = build_repair_report(
            system=system, assignment=args.assignment, rounds=args.rounds,
            oracle_depth=args.oracle_depth, result=result)
        for run in report["coverage"]["runs"]:
            print(f"coverage seed {run['seed']}: guided "
                  f"{run['guided_rows']} vs fixed {run['fixed_rows']} "
                  f"distinct rows ({run['delta']:+d})")
        if args.report:
            atomic_write_json(args.report, report)
        if baseline is not None:
            failures = compare_repair_baseline(report, baseline)
            if failures:
                print("closed-loop regressions vs baseline:")
                for failure in failures:
                    print(f"  FAIL {failure}")
                return 1
            print(f"no closed-loop regressions vs baseline "
                  f"({args.baseline})")
    return rc


def _cmd_map(system, args) -> int:
    from .protocols.asura.hardware import build_hardware_mapping
    hw = build_hardware_mapping(
        system.db, system.tables["D"], system.constraint_sets["D"],
    )
    print(f"ED: {hw.ed.row_count} rows x {len(hw.ed.schema)} columns")
    for name, part in hw.partitions.items():
        print(f"  {name:<18} {part.row_count:>4} rows")
    result = hw.check_preserved()
    print(result.summary_line())
    return 0 if result.passed else 1


def _cmd_codegen(system, args) -> int:
    from .core.codegen import generate_python, generate_verilog
    table = system.tables[args.table]
    if args.verilog:
        print(generate_verilog(table))
    else:
        print(generate_python(table))
    return 0


def _cmd_mutate(system, args) -> int:
    from .faults import compare_to_baseline, run_campaign
    from .runtime import JournalError, atomic_write_json

    classes = None
    if args.classes:
        classes = tuple(c.strip() for c in args.classes.split(",")
                        if c.strip())
    if args.resume and args.journal and args.resume != args.journal:
        print("repro: error: --resume already names the journal to "
              "continue; --journal must be omitted or identical",
              file=sys.stderr)
        return 2
    _check_writable(args.matrix_out)
    baseline = _read_baseline(args.baseline)
    try:
        result = run_campaign(
            system=system, seed=args.seed, count=args.count,
            classes=classes, assignment=args.assignment,
            journal_path=args.journal,
            resume_from=args.resume, oracle=args.oracle,
            oracle_depth=args.oracle_depth, oracle_nodes=args.oracle_nodes,
            repair=args.repair,
            repair_rounds=args.repair_rounds,
            repair_oracle_depth=args.repair_oracle_depth)
    except (ValueError, JournalError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    current = result.to_dict()
    if args.matrix_out:
        atomic_write_json(args.matrix_out, current)
    if baseline is not None:
        failures = compare_to_baseline(current, baseline)
        if failures:
            print("detection regressions vs baseline:")
            for failure in failures:
                print(f"  FAIL {failure}")
            return 1
        print(f"no detection regressions vs baseline ({args.baseline})")
    return 0


def _cmd_explore(system, args) -> int:
    from .explore import ExplorationError, ExploreConfig, ReachabilityExplorer
    from .runtime import JournalError, atomic_write_json

    if args.resume and args.journal and args.resume != args.journal:
        print("repro: error: --resume already names the journal to "
              "continue; --journal must be omitted or identical",
              file=sys.stderr)
        return 2
    _check_writable(args.out)
    # ``True`` (not "quad") when the flag is not given: journal headers
    # store the normalized mode either way, so this only keeps
    # ``--out``'s ``symmetry`` field ``true`` for a default run.
    symmetry = args.symmetry or True
    try:
        config = ExploreConfig(
            nodes=args.nodes, depth=args.depth, lines=args.lines,
            assignment=args.assignment,
            capacity=args.capacity, symmetry=symmetry,
            quads=args.quads,
            journal_path=args.journal, resume_from=args.resume)
        explorer = ReachabilityExplorer(system, config)
        result = explorer.run()
    except (ValueError, ExplorationError, JournalError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    # Persist before printing: a truncated stdout pipe (e.g. | head)
    # must not cost the --out file or the --save-db summary table.
    explorer.write_summary(system.db, result)
    if args.out:
        atomic_write_json(args.out, result.to_dict())
    print(result.render())
    for violation in result.violations:
        trace = explorer.counterexample(violation.digest)
        if trace:
            print(f"\ncounterexample ({violation.kind} at depth "
                  f"{violation.depth}):")
            print(trace)
    return 0 if result.ok else 1


def _family_member_entry(system, args, failures: list) -> dict:
    """Run the whole differential pipeline for one generated member and
    return its benchmark entry; hard failures (a stage that should be
    clean on an unmutated system going red) are appended to ``failures``."""
    from .explore import ExploreConfig, ReachabilityExplorer
    from .faults import run_campaign
    from .sim import figure2_scenario, random_workload

    spec = system.spec
    stats = system.stats()
    entry: dict = {
        "title": spec.title,
        "rows": stats["total_rows"],
        "busy_states": stats["busy_states"],
    }

    report = system.check_invariants()
    entry["invariants"] = {"passed": report.passed,
                           "checks": len(report.results)}
    print(f"  invariants: {'PASS' if report.passed else 'FAIL'} "
          f"({len(report.results)} checks)")
    if not report.passed:
        failures.append(f"{spec.key}: invariant suite failed")

    entry["deadlock"] = {}
    for assignment in ("v4", "v5", "v5d"):
        analysis = system.analyze_deadlocks(assignment)
        cycles = analysis.cycles()
        entry["deadlock"][assignment] = {"free": not cycles,
                                         "cycles": len(cycles)}
        print(f"  deadlock {assignment}: "
              + ("free" if not cycles else f"{len(cycles)} cycle(s)"))
    if not entry["deadlock"]["v5d"]["free"]:
        failures.append(f"{spec.key}: v5d is not deadlock-free")

    entry["simulation"] = {}
    for name, workload in (
            ("fig2", figure2_scenario(system, assignment=args.assignment)),
            ("random", random_workload(system, assignment=args.assignment,
                                       seed=args.seed, n_ops=60))):
        result = workload.run()
        entry["simulation"][name] = {"status": result.status,
                                     "steps": result.steps}
        print(f"  simulate {name}: {result.status} ({result.steps} steps)")
        if result.status != "quiescent":
            failures.append(f"{spec.key}: {name} simulation "
                            f"{result.status}")

    config = ExploreConfig(
        nodes=args.nodes, depth=args.explore_depth,
        assignment=args.assignment)
    result = ReachabilityExplorer(system, config).run()
    entry["explore"] = {
        "states": result.states,
        "transitions": result.transitions,
        "violations": len(result.violations),
        "deadlocks": len(result.deadlocks),
        "ok": result.ok,
    }
    print(f"  explore: {result.states} states / {result.transitions} "
          f"transitions to depth {args.explore_depth}"
          + ("" if result.ok else
             f" — {len(result.violations)} violation(s), "
             f"{len(result.deadlocks)} deadlock(s)"))
    if not result.ok:
        failures.append(f"{spec.key}: clean-system exploration found "
                        f"violations")

    if not args.skip_campaign:
        campaign = run_campaign(
            system=system, seed=args.seed, count=args.count,
            assignment=args.assignment, oracle="explore",
            oracle_depth=args.oracle_depth, oracle_nodes=args.nodes)
        entry["campaign"] = campaign.to_dict()
        totals = campaign.totals()
        print(f"  campaign: {totals['count'] - totals['escaped']}"
              f"/{totals['count']} caught, "
              f"{totals['false_negatives']} oracle-only "
              f"(FN rate {totals['false_negative_rate'] * 100:.1f}%)")
        if totals["crashed"]:
            failures.append(f"{spec.key}: {totals['crashed']} campaign "
                            f"mutant(s) crashed")
    return entry


def _cmd_family(args) -> int:
    """The cross-family differential pipeline.  Self-loading: generates
    one fresh system per member instead of taking the single system the
    other subcommands get from :func:`_load_system`."""
    from .faults import compare_to_baseline
    from .protocols.family import SPECS, build_variant
    from .runtime import atomic_write_json

    if getattr(args, "db", None) or getattr(args, "save_db", None):
        print("repro: error: family generates its own databases; "
              "--db/--save-db do not apply", file=sys.stderr)
        return 2
    baseline = _read_baseline(args.baseline)
    _check_writable(args.matrix_out)

    keys = tuple(SPECS) if args.all else (args.variant or "mesi",)
    members: dict = {}
    failures: list[str] = []
    for key in keys:
        print(f"=== {key} ===")
        system = build_variant(key)
        try:
            members[key] = _family_member_entry(system, args, failures)
        finally:
            system.db.close()

    bench = {
        "schema": "repro.family.bench/v1",
        "assignment": args.assignment,
        "nodes": args.nodes,
        "seed": args.seed,
        "count": args.count,
        "explore_depth": args.explore_depth,
        "oracle_depth": args.oracle_depth,
        "members": members,
    }
    if args.matrix_out:
        atomic_write_json(args.matrix_out, bench)
    regressions = []
    if baseline is not None:
        base_members = baseline.get("members", {})
        for key, entry in members.items():
            current = entry.get("campaign")
            base = base_members.get(key, {}).get("campaign")
            if current is None or base is None:
                continue
            regressions.extend(f"[{key}] {f}"
                               for f in compare_to_baseline(current, base))
        if regressions:
            print("detection regressions vs baseline:")
            for failure in regressions:
                print(f"  FAIL {failure}")
        else:
            print(f"no detection regressions vs baseline ({args.baseline})")
    if failures:
        print("family pipeline failures:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"family: all {len(members)} member(s) clean")
    return 1 if regressions else 0


def _cmd_watch(args) -> int:
    from .runtime.watch import run_watch
    return run_watch(args.journal, events_path=args.events,
                     interval=args.interval, once=args.once,
                     as_json=args.as_json)


#: subcommands that observe other runs rather than performing one: no
#: protocol database, no telemetry flags.
_NO_SYSTEM_COMMANDS = {"watch": _cmd_watch}

#: subcommands that build their own systems (one per family member)
#: instead of receiving the single one from :func:`_load_system`; they
#: still take the telemetry flags.
_SELF_SYSTEM_COMMANDS = {"family": _cmd_family}

_COMMANDS = {
    "stats": _cmd_stats,
    "check": _cmd_check,
    "deadlock": _cmd_deadlock,
    "simulate": _cmd_simulate,
    "repair": _cmd_repair,
    "map": _cmd_map,
    "codegen": _cmd_codegen,
    "mutate": _cmd_mutate,
    "explore": _cmd_explore,
}


class _UsageError(RuntimeError):
    """A path or flag combination given on the command line cannot be
    used; the message is the user-facing diagnostic (printed without a
    traceback, exit 2)."""


def _check_writable(path: Optional[str]) -> None:
    """Fail fast on an unwritable output path, before the work starts."""
    if path:
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise _UsageError(str(exc)) from exc


def _read_baseline(path: Optional[str]):
    """The parsed JSON ``--baseline`` file, or ``None`` without one."""
    import json

    if not path:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(
            f"cannot read baseline {path!r}: {exc}") from exc


def _load_system(args):
    """Build or attach the protocol system per the --db/--save-db/--variant
    flags.  A ``--db`` file's family member comes from its own marker
    table; naming a conflicting ``--variant`` is an error rather than a
    silent reinterpretation of the tables."""
    import os
    import sqlite3

    from .core.database import DatabaseError, ProtocolDatabase
    from .core.schema import SchemaError
    from .protocols.family import (
        attach_variant,
        build_variant,
        read_variant_marker,
    )

    db_path = getattr(args, "db", None)
    save_path = getattr(args, "save_db", None)
    variant = getattr(args, "variant", None)
    if db_path and save_path:
        raise _UsageError("--db and --save-db are mutually exclusive")
    if db_path:
        if not os.path.exists(db_path):
            raise _UsageError(
                f"database file {db_path!r} does not exist "
                f"(generate one with --save-db)")
        try:
            db = ProtocolDatabase(db_path)
            marker = read_variant_marker(db)
            if variant is not None and variant != marker:
                raise _UsageError(
                    f"--variant {variant} conflicts with the {marker!r} "
                    f"member recorded in {db_path!r}")
            return attach_variant(db, marker)
        except (DatabaseError, SchemaError, sqlite3.Error) as exc:
            raise _UsageError(
                f"cannot load protocol database {db_path!r}: "
                f"{str(exc).splitlines()[0]}") from exc
    if save_path:
        try:
            return build_variant(variant or "mesi",
                                 ProtocolDatabase(save_path))
        except (DatabaseError, sqlite3.Error) as exc:
            raise _UsageError(
                f"cannot generate a database at {save_path!r}: "
                f"{str(exc).splitlines()[0]}") from exc
    return build_variant(variant or "mesi")


def _dispatch(args, command, *command_args) -> int:
    """Run one subcommand, swallowing its output under ``--quiet``."""
    try:
        sink = io.StringIO() if args.quiet else None
        with contextlib.redirect_stdout(sink) if sink \
                else contextlib.nullcontext():
            return command(*command_args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: configure telemetry, build the system once (so table
    generation is captured too), dispatch to the subcommand, then export
    the requested telemetry artifacts."""
    from . import telemetry

    args = build_parser().parse_args(argv)
    if args.command in _NO_SYSTEM_COMMANDS:
        return _NO_SYSTEM_COMMANDS[args.command](args)
    collect = bool(args.profile or args.trace_out or args.report_out)
    if collect:
        try:
            # Before the build, not after the run's work is already done.
            _check_writable(args.report_out)
            tracer = telemetry.configure(trace_path=args.trace_out)
        except (_UsageError, OSError) as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
    else:
        tracer = telemetry.get_tracer()

    try:
        if args.command in _SELF_SYSTEM_COMMANDS:
            return _dispatch(args, _SELF_SYSTEM_COMMANDS[args.command], args)
        system = _load_system(args)
        try:
            return _dispatch(args, _COMMANDS[args.command], system, args)
        finally:
            system.db.close()
    except _UsageError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collect:
            try:
                if args.report_out:
                    telemetry.write_report(
                        tracer, args.report_out,
                        command=args.command,
                        argv=list(argv) if argv is not None else sys.argv[1:],
                    )
                if args.profile:
                    print(telemetry.render_summary(tracer))
            finally:
                telemetry.shutdown()
