#!/usr/bin/env python
"""Maintaining the specification: revisions and simulation coverage.

Two workflows from the paper's section 6 ("tables automatically
generated, *updated and maintained* throughout the development cycle ...
went through several revisions"):

1. **Revision review** — an architect edits a column constraint and
   regenerates; the semantic diff (rows added/removed/changed, keyed by
   input combination) is what the team reviews.

2. **Coverage audit** — after a random simulation campaign, which rows of
   the specification actually fired?  The uncovered rows are concrete
   test targets — or evidence that static checking is load-bearing where
   simulation cannot reach.

Run:  python examples/coverage_and_revisions.py
"""

import random

from repro.core.revision import RevisionLog
from repro.core.generator import TableGenerator
from repro.protocols.asura import build_system
from repro.protocols.family import MESI
from repro.protocols.family.directory import directory_constraints
from repro.sim.system import SimConfig, Simulator


def revision_demo(system) -> None:
    print("== revision review ==")
    log = RevisionLog(system.db, system.tables["D"].schema)
    log.commit(system.tables["D"], "debugged baseline")

    # A plausible "optimization" from a design review: grant the upgrade
    # as soon as the *first* idone arrives instead of waiting for all of
    # them.  Edit one constraint, regenerate, diff.
    from repro.core.expr import C, cases
    cs = directory_constraints(MESI)
    base = cs.get("nxtbdirst").expr
    cs.replace("nxtbdirst", cases(
        (C("inmsg").eq("idone") & C("bdirst").eq("Busy-u-s")
         & C("bdirpv").eq("gone"),
         C("nxtbdirst").eq("Busy-u-c")),       # premature grant!
        default=base,
    ))
    revised = TableGenerator(system.db, cs, table_name="D").generate_incremental()
    log.commit(revised.table, "grant upgrades on first idone (review idea)")

    print(log.history())
    diff = log.diff(1)
    print(diff.render(limit=3))

    # ... and the invariant suite immediately reports why the idea is
    # wrong — before any simulation or RTL existed:
    report = system.check_invariants()
    print(f"\ninvariants after the edit: {len(report.failures)} failing")
    for r in report.failures[:3]:
        print(f"  [{r.name}] {r.description}")

    # Roll back: regenerate from the original constraints.
    TableGenerator(system.db, directory_constraints(MESI),
                   table_name="D").generate_incremental()
    print("rolled back to the baseline constraints\n")


def coverage_demo(system) -> None:
    print("== simulation coverage audit ==")
    sim = Simulator(system, config=SimConfig(
        n_quads=2, nodes_per_quad=2, default_capacity=2,
        home_map={f"L{i}": i % 2 for i in range(4)},
        reissue_delay=6, coverage=True,
    ))
    rng = random.Random(7)
    nodes = list(sim.node_ids)
    for _ in range(300):
        if rng.random() < 0.15:
            sim.inject_io(rng.randrange(2),
                          rng.choice(("io_read", "io_write")),
                          f"L{rng.randrange(4)}")
        else:
            sim.inject_op(rng.choice(nodes),
                          rng.choices(("ld", "st", "evict"), (5, 3, 1))[0],
                          f"L{rng.randrange(4)}")
    result = sim.run()
    print(f"campaign: {result.status}, {result.messages} messages, "
          f"coherence checked every step")
    print(sim.coverage_report().render(show_uncovered=3))


def main() -> None:
    system = build_system()
    revision_demo(system)
    coverage_demo(system)


if __name__ == "__main__":
    main()
