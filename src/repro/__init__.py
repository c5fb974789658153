"""repro — SQL-based early error detection for cache coherence protocols.

A full reproduction of Subramaniam, "Early Error Detection in Industrial
Strength Cache Coherence Protocols Using SQL" (IPPS 2003): controller
tables generated from SQL column constraints, static deadlock and
invariant checking in the database, property-preserving mapping to
implementation tables, plus an executable table-driven protocol simulator
and a bounded reachability explorer over it.

Quickstart::

    from repro.protocols.asura import build_system
    sys = build_system()                 # generate all controller tables
    report = sys.check_invariants()      # the paper's ~50 SQL invariants
    analysis = sys.analyze_deadlocks("v5")
    print(analysis.cycles())   # [('VC2',), ('VC2', 'VC4'), ('VC4',)]
                               # ('VC2', 'VC4') is Figure 4
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
