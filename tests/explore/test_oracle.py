"""The exploration oracle and its campaign integration.

Two pinned false-negative witnesses anchor the ground-truth claim:

* ``D`` row 242 (directory consumes the memory ``data`` while
  ``Busy-r-d``, forwards ``cdata``, moves to ``Busy-r-c`` to await the
  requester's ``compl``): flipping ``nxtbdirst`` to ``I`` makes the
  directory forget it owes a completion.  The *paper's* static checks —
  the behavioral invariant suite and the VCG cycle analysis — both pass,
  yet five moves of exploration reach a ``compl`` with no matching row.
* ``V[v5d]`` moving the ``mwrite`` memory strobe off its dedicated
  ``PDM`` channel onto blocking ``VC3``: invisible to every table audit
  (the mutation lives in memory, not the database), cycle-free in the
  capacity-blind VCG, quiescent under both campaign workloads — and a
  guaranteed deadlock ten moves in, which only the exploration oracle
  reports.
"""

from __future__ import annotations

import pytest

from repro.core.sqlgen import quote_ident, quote_value
from repro.explore import oracle_check
from repro.faults import ORACLE_LAYER
from repro.faults.campaign import MutantTemplate, _run_mutant
from repro.faults.mutations import Mutation

#: the pinned flip-next-state witness (see module docstring).
FLIP_ROW = 242
FLIP_EXPECT = {"inmsg": "data", "bdirst": "Busy-r-d", "locmsg": "cdata",
               "nxtbdirst": "Busy-r-c"}
FLIP_VALUE = "I"

#: the pinned reassign-channel witness caught *only* by the oracle.
REASSIGN_KEY = ("mwrite", "home", "home")
REASSIGN_FROM, REASSIGN_TO = "PDM", "VC3"


def _flip_mutation() -> Mutation:
    return Mutation(
        mutant_id=0,
        fault_class="flip-next-state",
        target="D",
        description=(f"D.nxtbdirst row {FLIP_ROW}: "
                     f"{FLIP_EXPECT['nxtbdirst']!r} -> {FLIP_VALUE!r}"),
        statements=(
            f"UPDATE D SET {quote_ident('nxtbdirst')} = "
            f"{quote_value(FLIP_VALUE)} WHERE rowid = {FLIP_ROW}",),
    )


def _reassign_mutation() -> Mutation:
    return Mutation(
        mutant_id=0,
        fault_class="reassign-channel",
        target="V:v5d",
        description=(f"V[v5d] {REASSIGN_KEY}: "
                     f"{REASSIGN_FROM} -> {REASSIGN_TO}"),
        channel_moves=((REASSIGN_KEY, REASSIGN_TO),),
        assignment="v5d",
    )


@pytest.fixture(scope="module")
def clean_cycles(system):
    return frozenset(
        tuple(c) for c in system.analyze_deadlocks(
            "v5d", table_name="__oracle_test_dep").cycles())


@pytest.fixture(scope="module")
def campaign_template():
    """The template of a clean system carrying the audit reference
    tables — exactly what :func:`run_campaign` hands each mutant worker."""
    from repro.faults.audits import prepare_reference_tables
    from repro.protocols.asura import build_system
    prepared = build_system()
    prepare_reference_tables(prepared)
    return MutantTemplate.of(prepared)


class TestOracleOnCleanSystem:
    def test_clean_tables_get_a_clean_verdict(self, system):
        verdict = oracle_check(system, depth=6)
        assert verdict.clean and not verdict.caught
        assert verdict.states == 101 and verdict.depth == 6
        assert verdict.trace_moves == -1

    def test_v4_assignment_is_caught(self, system):
        verdict = oracle_check(system, assignment="v4", depth=4)
        assert verdict.caught and verdict.kind == "deadlock"
        assert verdict.trace_moves == 1
        assert "deadlock" in verdict.detail


class TestSeededBusyFlipWitness:
    """Satellite: the flip-next-state false negative of the paper's
    static checks, pinned."""

    def test_pinned_row_still_means_what_it_did(self, system):
        row = system.db.query(
            f"SELECT * FROM D WHERE rowid = {FLIP_ROW}")[0]
        for col, val in FLIP_EXPECT.items():
            assert row[col] == val, \
                f"D row {FLIP_ROW} drifted ({col}={row[col]!r}); " \
                f"re-pin the witness"

    def test_flip_passes_the_papers_static_checks(self, fresh_system,
                                                  clean_cycles):
        _flip_mutation().apply_to(fresh_system)
        # Static check 1: the behavioral invariant + determinism suite.
        assert fresh_system.check_invariants().passed
        # Static check 2: VCG deadlock analysis sees no new cycle.
        cycles = frozenset(
            tuple(c) for c in fresh_system.analyze_deadlocks(
                "v5d", table_name="__flip_dep").cycles())
        assert cycles == clean_cycles

    def test_flip_is_caught_by_the_oracle(self, fresh_system):
        _flip_mutation().apply_to(fresh_system)
        verdict = oracle_check(fresh_system, depth=8)
        assert verdict.caught and verdict.kind == "hole"
        assert verdict.trace_moves == 5
        assert "compl" in verdict.detail

    def test_structural_audits_exceed_the_paper(self, fresh_system):
        """The PR 3 conformance audits *do* catch the flip (generated
        tables are solution sets, so outputs are functionally determined)
        — the oracle is what proves the miss is real, not what finds it
        first in the full pipeline."""
        from repro.core.invariants import InvariantChecker
        from repro.faults.audits import (
            prepare_reference_tables,
            structural_invariants,
        )
        prepare_reference_tables(fresh_system)
        audits = structural_invariants(fresh_system)
        _flip_mutation().apply_to(fresh_system)
        checker = InvariantChecker(fresh_system.db)
        checker.extend(audits)
        assert not checker.check_all("audits").passed


class TestReassignChannelWitness:
    """Satellite/acceptance: a mutant that every production layer passes
    and only the oracle catches."""

    def test_escapes_all_three_layers(self, campaign_template,
                                      clean_cycles):
        report = _run_mutant(campaign_template, _reassign_mutation(),
                             "v5d", clean_cycles, 40)
        assert report.detected_by is None and report.outcome == "ok"

    def test_oracle_stage_catches_it(self, campaign_template, clean_cycles):
        report = _run_mutant(
            campaign_template, _reassign_mutation(), "v5d",
            clean_cycles, 40,
            oracle={"depth": 12, "nodes": 2, "lines": 1})
        assert report.detected_by == ORACLE_LAYER
        assert "deadlock" in report.detail

    def test_depth_bound_below_the_witness_misses_it(self, campaign_template,
                                                     clean_cycles):
        """The witness needs 10 moves + the expansion that proves the
        stall; a depth-8 oracle is honestly bounded and reports clean."""
        report = _run_mutant(
            campaign_template, _reassign_mutation(), "v5d",
            clean_cycles, 40,
            oracle={"depth": 8, "nodes": 2, "lines": 1})
        assert report.detected_by is None
