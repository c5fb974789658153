"""Tests for the structural audits (conformance + completeness).

These are what make single-cell and dropped-row mutations visible to the
static layer: a generated table is exactly the solution set of its column
constraints, so any corruption either violates the conjunction or leaves
an input combination uncovered.
"""

import pytest

from repro.core.database import ProtocolDatabase
from repro.core.expr import Not
from repro.core.invariants import InvariantChecker
from repro.core.sqlgen import quote_ident, to_sql
from repro.core.table import CLEAN_PREFIX
from repro.faults import prepare_reference_tables, structural_invariants


def audit_report(system):
    checker = InvariantChecker(system.db)
    checker.extend(structural_invariants(system))
    return checker.check_all("structural audits")


class TestReferenceTables:
    def test_one_reference_table_per_controller(self, fresh_system):
        names = prepare_reference_tables(fresh_system)
        assert names == [CLEAN_PREFIX + n for n in fresh_system.tables]
        for name in names:
            assert fresh_system.db.table_exists(name)

    def test_clean_copy_keeps_rowids_and_every_column(self, fresh_system):
        db = fresh_system.db
        db.execute("DELETE FROM D WHERE rowid = 3")
        prepare_reference_tables(fresh_system)
        copy = db.query_tuples(f'SELECT * FROM "{CLEAN_PREFIX}D" ORDER BY 1')
        assert copy == db.query_tuples(
            "SELECT rowid, * FROM D ORDER BY rowid")
        assert 3 not in {row[0] for row in copy}
        # Both audits compare against the copy, which is written from the
        # tables as given: they pass, and only the input check of
        # run_campaign could refuse such a baseline.
        assert audit_report(fresh_system).passed

    def test_idempotent(self, fresh_system):
        prepare_reference_tables(fresh_system)
        counts = {n: fresh_system.db.row_count(n)
                  for n in prepare_reference_tables(fresh_system)}
        assert all(c > 0 for c in counts.values())

    def test_reference_tables_survive_snapshot(self, fresh_system, clone_of):
        prepare_reference_tables(fresh_system)
        clone = clone_of(fresh_system)
        ref = CLEAN_PREFIX + "D"
        assert clone.db.row_count(ref) == fresh_system.db.row_count(ref)


class TestStructuralAudits:
    def test_clean_system_passes(self, fresh_system):
        prepare_reference_tables(fresh_system)
        report = audit_report(fresh_system)
        assert report.passed
        names = {r.name for r in report.results}
        for table in fresh_system.tables:
            assert f"audit-{table}-conforms" in names
            assert f"audit-{table}-complete" in names

    def test_completeness_needs_reference_tables(self, fresh_system):
        # Both audits are set differences against the clean copies.
        assert structural_invariants(fresh_system) == []
        prepare_reference_tables(fresh_system)
        invs = structural_invariants(fresh_system)
        assert [i.name for i in invs] == [
            f"audit-{table}-{kind}" for table in fresh_system.tables
            for kind in ("conforms", "complete")]
        assert all(i.violation_sql is not None for i in invs)

    def test_dropped_row_breaks_completeness(self, fresh_system):
        prepare_reference_tables(fresh_system)
        fresh_system.db.execute(
            "DELETE FROM D WHERE rowid = (SELECT MIN(rowid) FROM D)")
        report = audit_report(fresh_system)
        failed = {r.name for r in report.results if not r.passed}
        assert "audit-D-complete" in failed
        assert "audit-D-conforms" not in failed

    def test_corrupt_cell_breaks_conformance(self, system, clone_of):
        from repro.faults import MutationEngine

        mutation = MutationEngine(
            system, seed=0, classes=("flip-next-state",)).sample(1)[0]
        clone = clone_of(system)
        prepare_reference_tables(clone)
        mutation.apply_to(clone)
        report = audit_report(clone)
        failed = {r.name for r in report.results if not r.passed}
        assert f"audit-{mutation.target}-conforms" in failed

    def test_audits_built_before_mutation_see_original_constraints(
            self, system, clone_of):
        # relax-constraint rewrites the clone's ConstraintSet; audits
        # captured beforehand still enforce the clean specification.
        from repro.faults import MutationEngine

        mutation = MutationEngine(
            system, seed=1, classes=("relax-constraint",)).sample(1)[0]
        clone = clone_of(system)
        prepare_reference_tables(clone)
        invs = structural_invariants(clone)
        mutation.apply_to(clone)
        checker = InvariantChecker(clone.db)
        checker.extend(invs)
        report = checker.check_all("pre-captured audits")
        failed = {r.name for r in report.results if not r.passed}
        assert f"audit-{mutation.target}-conforms" in failed


#: mutants per family member the parity test covers: the whole committed
#: seed-0 campaign of MESI, a prefix of every other member's.
PARITY_MUTANTS = {"mesi": 50, "moesi": 12, "mesif": 12, "mesi-vc6": 12,
                  "mesi-noio": 12}


@pytest.fixture(scope="module")
def parity_templates():
    """Each member's campaign template and its seed-0 mutations."""
    from repro.faults import MutationEngine
    from repro.faults.campaign import MutantTemplate
    from repro.protocols.family import build_variant

    out = {}
    for key, count in PARITY_MUTANTS.items():
        system = build_variant(key)
        prepare_reference_tables(system)
        out[key] = (MutantTemplate.of(system),
                    MutationEngine(system, seed=0).sample(count))
    yield out
    for template, _ in out.values():
        template.system.db.close()


def _conjunction_rows(db, cs, table):
    """The oracle: the inputs of the rows of ``table`` that break its
    clean constraint conjunction, sorted."""
    inputs = ", ".join(map(quote_ident, cs.schema.input_names))
    return sorted(db.query_tuples(
        f"SELECT {inputs} FROM {quote_ident(table)} "
        f"WHERE {to_sql(Not(cs.conjunction()))}"), key=repr)


@pytest.mark.parametrize("member", PARITY_MUTANTS)
def test_set_difference_finds_the_conjunctions_rows(parity_templates,
                                                    member):
    """A generated table is the solution set of its constraints, so on
    every sampled mutant the conformance audit (the mutated table EXCEPT
    its clean copy) returns exactly the rows that break the conjunction
    the table was generated from."""
    template, mutations = parity_templates[member]
    conforms = {inv.name: inv for inv in template.checker.invariants
                if inv.name.endswith("-conforms")}
    clean_sets = template.system.constraint_sets
    violated = 0
    for mutation in mutations:
        with ProtocolDatabase.deserialize(template.snapshot) as db:
            mutation.apply_to(template.system.attach(db))
            for table, cs in clean_sets.items():
                audit = conforms[f"audit-{table}-conforms"]
                rows = sorted(db.query_tuples(audit.violation_sql), key=repr)
                assert rows == _conjunction_rows(db, cs, table), (
                    mutation.description, table)
                violated += bool(rows)
    assert violated  # the parity is not vacuous
