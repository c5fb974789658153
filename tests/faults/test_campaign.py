"""Tests for the mutation campaign: determinism, detection layers, and
the baseline-comparison gate used by CI."""

from collections import Counter

import pytest

import repro.faults.campaign as campaign_mod
from repro import telemetry
from repro.core.database import ProtocolDatabase
from repro.core.sqlgen import quote_ident
from repro.faults import (
    FAULT_CLASSES,
    MutationEngine,
    compare_to_baseline,
    prepare_reference_tables,
    run_campaign,
)
from repro.faults.campaign import MATRIX_SCHEMA, MutantTemplate, _run_mutant
from repro.faults.mutations import Mutation
from repro.protocols.asura.system import AsuraSystem

from ..core.invariant_oracle import per_invariant


@pytest.fixture(scope="module")
def small_campaign(system):
    """One deterministic 8-mutant campaign shared by the shape tests."""
    return run_campaign(system=system, seed=0, count=8)


class TestCampaignDeterminism:
    def test_rerun_gives_identical_results(self, system, small_campaign):
        again = run_campaign(system=system, seed=0, count=8)
        assert again.to_dict() == small_campaign.to_dict()

    def test_smoke_slice_is_prefix_of_full_run(self, system, small_campaign):
        longer = run_campaign(system=system, seed=0, count=12)
        assert (longer.to_dict()["mutants"][:8]
                == small_campaign.to_dict()["mutants"])


class TestDetectionExpectations:
    def test_table_mutations_caught_by_invariants(self, system):
        classes = tuple(c for c in FAULT_CLASSES if c != "reassign-channel")
        result = run_campaign(system=system, seed=0, count=10,
                              classes=classes)
        assert all(r.detected_by == "invariants" for r in result.reports)

    def test_channel_mutations_caught_by_deadlock_layer(self, system):
        result = run_campaign(system=system, seed=0, count=3,
                              classes=("reassign-channel",))
        # Audits cannot see V; the VCG cycle comparison is what fires.
        assert all(r.detected_by == "deadlock" for r in result.reports)
        assert all(r.caught_pre_sim for r in result.reports)

    def test_dirty_input_system_is_rejected(self, fresh_system):
        fresh_system.db.execute(
            "DELETE FROM D WHERE rowid = (SELECT MIN(rowid) FROM D)")
        with pytest.raises(ValueError, match="clean system"):
            run_campaign(system=fresh_system, seed=0, count=1)

    def test_nonconforming_input_system_is_rejected(self, fresh_system):
        # A directory row that no longer satisfies D's constraint
        # conjunction, yet passes the suite and the determinism checks:
        # the audits compare against a copy of this very table, so only
        # the input check of the clean copies refuses it.
        fresh_system.db.execute(
            "UPDATE D SET nxtbdirst = 'I' WHERE rowid = 242")
        assert fresh_system.check_invariants().passed
        with pytest.raises(ValueError, match="clean system"):
            run_campaign(system=fresh_system, seed=0, count=1)


def _template_and_cycles(system, clone_of):
    """A campaign template of a clone of ``system``, and its clean
    cycles, as :func:`run_campaign` prepares them."""
    clone = clone_of(system)
    prepare_reference_tables(clone)
    cycles = frozenset(
        tuple(c) for c in clone.analyze_deadlocks(
            "v5d", table_name="__t_clean_dep").cycles())
    return MutantTemplate.of(clone), cycles


class TestDetectionLayers:
    def test_noop_mutation_escapes(self, system, clone_of):
        template, cycles = _template_and_cycles(system, clone_of)
        noop = Mutation(mutant_id=0, fault_class="drop-row", target="D",
                        description="no-op")
        report = _run_mutant(template, noop, "v5d", cycles, sim_ops=10)
        assert report.detected_by is None
        assert not report.caught
        assert not report.caught_pre_sim

    def test_simulation_layer_is_a_real_backstop(self, system, clone_of,
                                                 monkeypatch):
        # Blind the merged layer-1 sweep; a gutted cache controller must
        # still be caught when the simulator tries to look transitions up.
        monkeypatch.setattr(MutantTemplate, "failed_checks",
                            lambda self, system, tables=None: [])
        template, cycles = _template_and_cycles(system, clone_of)
        gut = Mutation(mutant_id=1, fault_class="drop-row", target="C",
                       description="all C rows deleted",
                       statements=("DELETE FROM C",))
        report = _run_mutant(template, gut, "v5d", cycles, sim_ops=10)
        assert report.detected_by == "simulation"
        assert report.caught and not report.caught_pre_sim


class TestSharedDerivation:
    """Mutants share one template derived from the clean system; only a
    relax-constraint mutant copies (and then edits) a constraint set."""

    def test_constraint_sets_survive_relax_mutants(self, fresh_system,
                                                   monkeypatch):
        from repro.core.sqlgen import to_sql
        from repro.protocols.asura.system import CONTROLLER_BUILDERS

        templates = []
        orig = campaign_mod._run_mutant

        def capturing(template, *args):
            templates.append(template)
            return orig(template, *args)

        monkeypatch.setattr(campaign_mod, "_run_mutant", capturing)
        result = run_campaign(system=fresh_system, seed=0, count=8)
        assert [r.fault_class for r in result.reports[:2]] == [
            "relax-constraint"] * 2
        fresh = {name: to_sql(build().conjunction())
                 for name, build in CONTROLLER_BUILDERS.items()}
        for owner in (fresh_system, templates[0].system):
            assert {name: to_sql(cs.conjunction()) for name, cs
                    in owner.constraint_sets.items()} == fresh

    @pytest.mark.parametrize("second", ["flip-next-state",
                                        "relax-constraint"])
    def test_relax_mutant_leaves_the_next_mutant_alone(self, system,
                                                       clone_of, second):
        relax, *others = MutationEngine(
            system, seed=0, classes=("relax-constraint",),
            tables=("C",)).sample(8)
        if second == "relax-constraint":
            # Another column of the same table.
            nxt = next(m for m in others
                       if m.relaxed_column != relax.relaxed_column)
        else:
            nxt = MutationEngine(system, seed=0, classes=(second,),
                                 tables=("C",)).sample(1)[0]
        template, cycles = _template_and_cycles(system, clone_of)
        _run_mutant(template, relax, "v5d", cycles, sim_ops=10)
        after_relax = _run_mutant(template, nxt, "v5d", cycles, sim_ops=10)
        template, cycles = _template_and_cycles(system, clone_of)
        alone = _run_mutant(template, nxt, "v5d", cycles, sim_ops=10)
        assert after_relax.to_dict() == alone.to_dict()

    def test_campaign_work_is_pinned(self, fresh_system):
        """The exact SQL statement and check counts of a seed-0 8-mutant
        campaign.  Before the shared template it issued 1,542 statements
        (it re-derived per mutant and fetched each overlapping row
        separately), and 514 with every check on every mutant (972
        checks).  Each mutant now runs only the checks that read a table
        it wrote; a change that re-derives per mutant or sweeps untouched
        tables again fails here.  The violations found must not move:
        404, as with the full sweep.  Row-local checks judge only the rows
        that differ from the clean copies: 149, from the suite's
        changed-rows queries (a one-cell edit is one row; 298 while the
        conformance audit was an expression invariant with changed-rows
        queries of its own).  The statement count fell from 458 to 417:
        attaching a
        table reads its columns once instead of also probing that it
        exists, while a sweep runs one bit-mask query per table for the
        expression invariants beside the UNION ALL of the raw-SQL ones.
        It fell again from 417 to 353 when each relaxed table became one
        generating statement instead of one working table per column, and
        from 353 to 279 when a regeneration stopped re-creating one
        column table per column and filled one values table instead, and
        from 279 to 262 when the audits became set differences against
        the clean copies, swept with the suite by one checker (254), plus
        one conjunction per table checking the clean copies (8), and from
        262 to 243 when the clean deadlock analysis became one V check,
        one statement writing every placement's direct rows, one index
        and one row count (21 statements instead of 40)."""
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            run_campaign(system=fresh_system, seed=0, count=8)
        counters = tracer.registry.counters
        assert counters["sql.queries"] == 243
        assert counters["invariant.checks"] == 376
        assert counters["invariant.violations"] == 404
        assert counters["invariant.delta_rows"] == 149


class _RecordingTracer(telemetry.Tracer):
    """A tracer that keeps every statement whole (the trace truncates)."""

    def __init__(self):
        super().__init__()
        self.statements = []

    def record_sql(self, sql, *args, **kwargs):
        self.statements.append(sql)
        super().record_sql(sql, *args, **kwargs)


class TestOneSweepPerMutant:
    def test_conjunctions_run_once_per_campaign(self, fresh_system,
                                                monkeypatch):
        """Layer 1 of each mutant is one checker's sweep, and no mutant
        runs a constraint conjunction: each table's conjunction runs
        once per campaign, checking the clean copy."""
        from repro.core.expr import Not
        from repro.core.invariants import InvariantChecker
        from repro.core.sqlgen import to_sql

        sweeps = []
        check_all = InvariantChecker.check_all

        def counted(self, *args, **kwargs):
            sweeps.append(self.invariants)
            return check_all(self, *args, **kwargs)

        monkeypatch.setattr(InvariantChecker, "check_all", counted)
        conjunctions = {name: to_sql(Not(cs.conjunction())) for name, cs
                        in fresh_system.constraint_sets.items()}
        tracer = _RecordingTracer()
        with telemetry.use_tracer(tracer):
            result = run_campaign(system=fresh_system, seed=0, count=8)
        for name, conjunction in conjunctions.items():
            assert sum(conjunction in sql
                       for sql in tracer.statements) == 1, name
        # The clean baseline's sweep, then one per mutant, all by the
        # template's checker.
        assert len(sweeps) == 1 + result.count
        assert len(set(sweeps)) == 1


SEED0_MUTANTS = 50


@pytest.fixture(scope="module")
def seed0(system):
    """The committed seed-0 campaign's template and its 50 mutations,
    derived as :func:`run_campaign` derives them."""
    db = ProtocolDatabase.deserialize(system.db.snapshot())
    clean = AsuraSystem.from_database(db)
    prepare_reference_tables(clean)
    template = MutantTemplate.of(clean)
    mutations = MutationEngine(clean, seed=0).sample(SEED0_MUTANTS)
    yield template, mutations
    db.close()


def _failures(results):
    return [(r.name, r.details) for r in results if not r.passed]


class TestTableScopedChecks:
    """A mutant re-runs only the checks that read a table it wrote, and
    judges the row-local ones on the rows that differ from the clean
    copies; the full sweep over all eight tables is the oracle."""

    @pytest.mark.parametrize("mutant", range(SEED0_MUTANTS))
    def test_scoped_layer_one_matches_full_sweep(self, seed0, mutant):
        template, mutations = seed0
        mutation = mutations[mutant]
        with ProtocolDatabase.deserialize(template.snapshot) as db:
            system = template.system.attach(db)
            mutation.apply_to(system)
            checker = template.checker.bound_to(db)
            full = (checker.check_all().results, system.check_determinism())
            # The oracle: the per-invariant path.
            oracle = (per_invariant(checker), full[1])
            tracer = telemetry.Tracer()
            with telemetry.use_tracer(tracer):
                scoped = (checker.check_all(tables=mutation.tables).results,
                          system.check_determinism(tables=mutation.tables))
            # Row-local checks ran on the changed rows (none for a
            # dropped row), and only when the mutant wrote a table.
            counted = tracer.registry.counters.get("invariant.delta_rows")
            assert (counted is None) == (not mutation.tables)
            for wholes in (full, oracle):
                for whole, part in zip(wholes, scoped):
                    assert _failures(part) == _failures(whole)
                    ran = [r.name for r in part]
                    assert ran == [r.name for r in whole if r.name in ran]

    @pytest.mark.parametrize("mutant", range(SEED0_MUTANTS))
    def test_declared_tables_are_the_changed_tables(self, seed0, mutant):
        template, mutations = seed0
        mutation = mutations[mutant]
        with ProtocolDatabase.deserialize(template.snapshot) as clean, \
                ProtocolDatabase.deserialize(template.snapshot) as db:
            mutation.apply_to(template.system.attach(db))
            names = _table_names(clean) | _table_names(db)
            changed = {name for name in names
                       if _row_multiset(clean, name) != _row_multiset(db, name)}
        assert changed == set(mutation.tables)

    def test_full_campaign_violations_are_pinned(self, fresh_system):
        """Scoping skips only checks that pass: the committed campaign
        still finds the 13,313 violations the full sweep found."""
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            run_campaign(system=fresh_system, seed=0, count=SEED0_MUTANTS)
        assert tracer.registry.counters["invariant.violations"] == 13_313


def _table_names(db):
    return {r["name"] for r in db.query(
        "SELECT name FROM sqlite_master WHERE type = 'table'")}


def _row_multiset(db, name):
    """The rows of ``name`` with multiplicity (a duplicated row counts),
    or None when the table is absent."""
    if not db.table_exists(name):
        return None
    return Counter(db.query_tuples(f"SELECT * FROM {quote_ident(name)}"))


class TestMatrixReport:
    def test_to_dict_shape(self, small_campaign):
        d = small_campaign.to_dict()
        assert d["schema"] == MATRIX_SCHEMA
        assert d["seed"] == 0
        assert d["count"] == 8 == len(d["mutants"])
        assert set(d["classes"]) <= set(FAULT_CLASSES)
        totals = d["totals"]
        assert totals["count"] == 8
        assert (totals["invariants"] + totals["deadlock"]
                + totals["simulation"] + totals["escaped"]) == 8
        per_class = sum(row["count"] for row in d["matrix"].values())
        assert per_class == 8

    def test_render_mentions_rates(self, small_campaign):
        text = small_campaign.render()
        assert "caught before simulation:" in text
        assert "fault class" in text


def matrix(detected, *, seed=0, assignment="v5d", classes=("drop-row",),
           schema=MATRIX_SCHEMA, descriptions=None):
    mutants = []
    for i, layer in enumerate(detected):
        desc = descriptions[i] if descriptions else f"mutant {i}"
        mutants.append({"mutant_id": i, "fault_class": classes[0],
                        "description": desc, "detected_by": layer})
    return {"schema": schema, "seed": seed, "assignment": assignment,
            "classes": list(classes), "mutants": mutants}


class TestBaselineCompare:
    def test_identical_runs_have_no_regressions(self):
        base = matrix(["invariants", "deadlock", None])
        assert compare_to_baseline(base, base) == []

    def test_later_layer_is_a_regression(self):
        base = matrix(["invariants"])
        cur = matrix(["deadlock"])
        (failure,) = compare_to_baseline(cur, base)
        assert "was caught by invariants, now deadlock" in failure

    def test_escape_is_a_regression(self):
        base = matrix(["simulation"])
        cur = matrix([None])
        (failure,) = compare_to_baseline(cur, base)
        assert "now ESCAPED" in failure

    def test_earlier_detection_is_an_improvement_not_a_failure(self):
        base = matrix(["simulation", None])
        cur = matrix(["invariants", "deadlock"])
        assert compare_to_baseline(cur, base) == []

    def test_smoke_prefix_only_gates_committed_mutants(self):
        base = matrix(["invariants", "invariants"])
        cur = matrix(["invariants", "invariants", None])
        assert compare_to_baseline(cur, base) == []

    def test_diverged_mutant_demands_regeneration(self):
        base = matrix(["invariants"], descriptions=["old mutant"])
        cur = matrix(["invariants"], descriptions=["new mutant"])
        (failure,) = compare_to_baseline(cur, base)
        assert "regenerate the baseline" in failure

    def test_parameter_mismatch_reported(self):
        base = matrix(["invariants"], seed=1)
        cur = matrix(["invariants"], seed=0)
        failures = compare_to_baseline(cur, base)
        assert failures and "seed" in failures[0]

    def test_wrong_schema_rejected(self):
        base = matrix(["invariants"], schema="bogus/v9")
        cur = matrix(["invariants"])
        (failure,) = compare_to_baseline(cur, base)
        assert "schema" in failure


class TestOracleCampaign:
    """The optional fourth stage: ``--oracle explore`` re-scores every
    escaped mutant against bounded exhaustive exploration and reports
    the survivors as false negatives of the static pipeline."""

    @pytest.fixture(scope="class")
    def oracle_campaign(self, system):
        return run_campaign(system=system, seed=0, count=4,
                            oracle="explore", oracle_depth=4)

    def test_matrix_gains_oracle_column(self, oracle_campaign):
        d = oracle_campaign.to_dict()
        assert d["oracle"] == {"depth": 4, "nodes": 2, "lines": 1}
        assert all("oracle" in row for row in d["matrix"].values())
        totals = d["totals"]
        assert totals["false_negatives"] == totals["oracle"]
        assert "false_negative_rate" in totals

    def test_plain_matrix_stays_byte_identical(self, small_campaign):
        """Without --oracle nothing leaks: the JSON must match what
        pre-oracle code versions produced."""
        d = small_campaign.to_dict()
        assert "oracle" not in d
        assert all("oracle" not in row for row in d["matrix"].values())
        assert "false_negatives" not in d["totals"]

    def test_render_reports_false_negatives(self, oracle_campaign):
        text = oracle_campaign.render()
        assert "oracle (bounded exploration, depth=4 nodes=2)" in text

    def test_clean_exploration_summary_saved(self, oracle_campaign, system):
        """--save-db after an oracle campaign carries the clean-system
        exploration certificate (satellite: snapshot round-trip is
        exercised in tests/explore/)."""
        from repro.explore import SUMMARY_TABLE
        assert system.db.table_exists(SUMMARY_TABLE)

    def test_unknown_oracle_rejected(self, system):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_campaign(system=system, seed=0, count=1, oracle="bdd")

    def test_clean_system_must_survive_the_bounds(self, system):
        """v4's clean deadlock makes the oracle column meaningless; the
        campaign refuses rather than reporting garbage."""
        with pytest.raises(ValueError, match="violates under exploration"):
            run_campaign(system=system, seed=0, count=1, assignment="v4",
                         oracle="explore", oracle_depth=4)

    def test_resume_refuses_journal_without_oracle(self, system, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(system=system, seed=0, count=2, journal_path=journal)
        from repro.runtime import JournalError
        with pytest.raises(JournalError, match="oracle"):
            run_campaign(system=system, seed=0, count=2,
                         resume_from=journal, oracle="explore",
                         oracle_depth=4)


class TestBaselineCompareOracle:
    def _with_oracle(self, m):
        return dict(m, oracle={"depth": 14, "nodes": 2, "lines": 1})

    def test_oracle_parameter_mismatch_reported(self):
        base = matrix(["invariants"])
        cur = self._with_oracle(matrix(["invariants"]))
        failures = compare_to_baseline(cur, base)
        assert failures and "'oracle'" in failures[0]

    def test_oracle_detection_gates_like_any_layer(self):
        base = self._with_oracle(matrix(["oracle"]))
        cur = self._with_oracle(matrix([None]))
        (failure,) = compare_to_baseline(cur, base)
        assert "now ESCAPED" in failure

    def test_falling_from_simulation_to_oracle_is_a_regression(self):
        base = self._with_oracle(matrix(["simulation"]))
        cur = self._with_oracle(matrix(["oracle"]))
        (failure,) = compare_to_baseline(cur, base)
        assert "was caught by simulation, now oracle" in failure
