#!/usr/bin/env python
"""Quickstart: generate the protocol, run every static check.

This walks the paper's push-button flow end to end:

1. the eight controller tables are generated from SQL column constraints,
2. the ~80 protocol invariants are checked in the database,
3. the three historical channel assignments are analyzed for deadlocks.

Run:  python examples/quickstart.py
"""

from repro.analysis.stats import collect
from repro.protocols.asura import build_system


def main() -> None:
    print("Generating the ASURA protocol from column constraints ...")
    system = build_system()

    stats = collect(system)
    print(f"\n== protocol statistics (paper section 3/6 vs ours) ==")
    print(f"{'quantity':<26}{'paper':<20}ours")
    for quantity, paper, ours in stats.paper_comparison():
        print(f"{quantity:<26}{paper:<20}{ours}")
    print("\nper-table sizes:")
    for name, s in stats.per_table.items():
        print(f"  {name:<4} {s.n_rows:>4} rows x {s.n_columns:>2} columns")

    print("\nChecking protocol invariants (paper section 4.3) ...")
    report = system.check_invariants()
    n_ok = sum(r.passed for r in report.results)
    print(f"  {n_ok}/{len(report.results)} checks pass "
          f"in {report.total_seconds:.3f}s")
    if not report.passed:
        print(report.render())

    print("\nDeadlock analysis (paper section 4.1) ...")
    for name in ("v4", "v5", "v5d"):
        analysis = system.analyze_deadlocks(name)
        cycles = analysis.cycles()
        verdict = "deadlock-free" if not cycles else f"{len(cycles)} cycle(s)"
        print(f"  {name:<4} {verdict:<16} "
              f"{len(analysis.vcg.edges)} channel dependencies, "
              f"{analysis.build_seconds:.2f}s")
        for cycle in cycles:
            print(f"        cycle: {' -> '.join(cycle)} -> {cycle[0]}")

    print("\nDone.  See examples/deadlock_hunt.py for the Figure 4 story.")


if __name__ == "__main__":
    main()
