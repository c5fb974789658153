"""Experiment T5 — invariant checking (paper section 4.3).

Claim: "All of the protocol invariants (around 50) are checked on a SUN
Sparc 10 within 5 minutes."  Ours run the full suite (80+ invariants over
all eight controller tables, including recursive-SQL liveness checks and
cross-controller joins) in milliseconds; the *shape* — declarative SQL
checks are cheap enough to run on every specification edit — holds with
orders of magnitude to spare.

Benchmarks run with ``benchmark.pedantic`` and fixed round counts so the
query totals in ``BENCH_invariants.json`` are deterministic and
comparable across commits (auto-calibration would issue more queries the
faster the sweep gets, masking round-trip reductions).  The default
sweep is batched (one UNION ALL query for the whole suite); see
``docs/PERFORMANCE.md``.
"""

from repro.core.invariants import InvariantChecker
from repro.protocols.family import MESI
from repro.protocols.family.invariants import build_invariants

#: fixed pedantic rounds per benchmark — keep in sync with the docstring.
ROUNDS_FULL = 50
ROUNDS_FOUR = 50
ROUNDS_LIVENESS = 100
ROUNDS_DETERMINISM = 50


def test_full_invariant_suite(benchmark, system):
    checker = system.invariant_checker()

    report = benchmark.pedantic(
        checker.check_all, rounds=ROUNDS_FULL, iterations=1, warmup_rounds=2,
    )
    assert report.passed
    assert len(report.results) >= 50


def test_paper_four_invariants(benchmark, system):
    """Just the four invariants section 4.3 spells out."""
    names = {
        "dir-pv-consistency",
        "dir-bdir-mutual-exclusion",
        "serialize-retry-when-busy",
        "serialize-dealloc-on-completion",
    }
    # A checker of its own, holding just these four.
    checker = InvariantChecker(system.db)
    checker.extend([i for i in build_invariants(MESI) if i.name in names])
    assert len(checker.invariants) == 4

    report = benchmark.pedantic(
        checker.check_all, rounds=ROUNDS_FOUR, iterations=1, warmup_rounds=2,
    )
    assert report.passed


def test_recursive_liveness_invariant(benchmark, system):
    """The WITH RECURSIVE busy-state completability check on its own."""
    # A checker of its own, holding just this invariant.
    checker = InvariantChecker(system.db)
    checker.extend([i for i in build_invariants(MESI)
                    if i.name == "every-busy-state-completable"])
    assert len(checker.invariants) == 1

    report = benchmark.pedantic(
        checker.check_all, rounds=ROUNDS_LIVENESS, iterations=1,
        warmup_rounds=2,
    )
    assert report.passed


def test_determinism_check_all_tables(benchmark, system):
    def run():
        return [t.overlapping_pairs()[1] for t in system.tables.values()]

    overlaps = benchmark.pedantic(
        run, rounds=ROUNDS_DETERMINISM, iterations=1, warmup_rounds=2,
    )
    assert all(not o for o in overlaps)
