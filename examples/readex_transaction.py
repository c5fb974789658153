#!/usr/bin/env python
"""Figure 2: the Read Exclusive transaction at the directory controller.

A local node stores to a line cached shared at a remote node.  The
simulator executes the *generated* controller tables: the directory looks
up each incoming message in D, the nodes in C/N, memory in M.  The
printed trace is the paper's Figure 2 message sequence:

    local --readex--> D; D --sinv--> remote, D --mread--> memory;
    remote --idone--> D, memory --data--> D; D --data/compl--> local.

Run:  python examples/readex_transaction.py
"""

from repro.protocols.asura import build_system
from repro.sim import figure2_scenario, render_sequence


def main() -> None:
    system = build_system()
    workload = figure2_scenario(system)
    sim = workload.simulator

    home = sim.home_quad("X")
    print("Initial state:")
    print(f"  line X homed at quad {home}; directory: "
          f"{sim.directory_line('X')}")
    print(f"  node:0.1 caches X in state {sim.line('node:0.1', 'X')}")
    print(f"  node:1.0 issues: st X   (a store miss -> readex)\n")

    result = workload.run()

    print(f"Transaction trace ({result.status} after {result.steps} steps):")
    for event in result.trace:
        print(f"  {event}")

    print("\nAs the Figure 2 sequence diagram (numbers = arc order):\n")
    print(render_sequence(result.trace, addr="X"))

    print("\nFinal state:")
    dirst, pv = sim.directory_line("X")
    print(f"  directory: state={dirst}, presence vector={sorted(pv)}")
    for nid in ("node:1.0", "node:0.1"):
        print(f"  {nid} caches X in state {sim.line(nid, 'X')}")
    sim.check_directory_agreement()
    print("  directory agrees with the caches. "
          "Ownership transferred, exactly as in Figure 2.")


if __name__ == "__main__":
    main()
