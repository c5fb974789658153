#!/usr/bin/env python
"""Figure 4: the full deadlock-debugging history, statically and
dynamically.

The paper's sequence of events at Fujitsu:

1. The initial assignment (v4) shares the directory-to-memory path with
   the request channel: the analysis finds *several* cycles involving the
   home directory and memory controllers.
2. VC4 is added for directory-to-memory traffic (v5).  The analysis now
   finds the nontrivial Figure 4 deadlock: VC2 (responses into home) and
   VC4 depend on each other through interleaved wb(B)/readex(A)
   transactions under the quad placement L != H = R.
3. The fix — "a dedicated hardware path from directory controller to the
   home memory controller" (v5d) — clears every cycle.  "Our design team
   informed us that adding such a path is a major revision and could have
   proven costly if it was found later."

For each step this script runs the static SQL analysis, then *executes*
the Figure 4 schedule on the table-driven simulator to confirm the
verdict, and finally cross-checks by bounded exhaustive exploration
(2 nodes, 2 lines, depth 13) — the kind of search the paper says needs
heavy abstraction to stay tractable.

Run:  python examples/deadlock_hunt.py
"""

from repro.explore import explore_system
from repro.protocols.asura import build_system
from repro.sim import figure4_scenario


def main() -> None:
    system = build_system()

    for name, story in (
        ("v4", "initial 4-channel assignment"),
        ("v5", "VC4 added for directory->memory traffic"),
        ("v5d", "dedicated hardware path for response-triggered memory requests"),
    ):
        print(f"=== {name}: {story} ===")

        # -- static analysis (paper section 4.1) -------------------------
        analysis = system.analyze_deadlocks(name)
        cycles = analysis.cycles()
        print(f"static : {len(cycles)} cycle(s) in the VCG "
              f"({len(analysis.vcg.nodes)} channels, "
              f"{len(analysis.vcg.edges)} dependencies)")
        for cycle in cycles:
            print("  " + analysis.scenario(cycle).replace("\n", "\n  "))

        # -- dynamic confirmation ----------------------------------------
        result = figure4_scenario(system, name).run()
        print(f"dynamic: Figure 4 schedule -> {result.status}")
        if result.deadlocked:
            for line in result.deadlock_report.splitlines():
                print(f"  {line}")

        # -- exhaustive cross-check (paper section 4.2) -------------------
        explored = explore_system(system, nodes=2, lines=2, depth=13,
                                  assignment=name, stop_on_violation=True)
        if explored.ok:
            verdict = "no violation within the bound"
        else:
            first = explored.violations[0]
            verdict = f"{first.kind} at depth {first.depth} ({first.detail})"
        print(f"exploration: {verdict} after {explored.states} states / "
              f"{explored.transitions} transitions in "
              f"{explored.wall_seconds:.2f}s")
        print()

    print("The SQL analysis needed no state enumeration at all — the")
    print("dependency tables and one pairwise composition found the same")
    print("deadlock the explorer needed an exhaustive search for.")

    # -- bonus: automate the debugging loop itself ------------------------
    print("\n=== automated repair (the loop the Fujitsu team ran by hand) ===")
    from repro.core.repair import DeadlockRepairer
    repairer = DeadlockRepairer(
        system.db, system.deadlock_specs(), system.channel_assignments["v5"],
    )
    print(repairer.search().render())
    print("\n(The paper's own fix — dedicated paths for the response-")
    print("triggered memory requests — is our v5d; the search finds an")
    print("equally valid alternative on the memory-response side.)")


if __name__ == "__main__":
    main()
