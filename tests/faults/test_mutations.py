"""Unit tests for the mutation engine: determinism, prefix stability,
class/table filtering, and the apply path of every fault class."""

import pytest

from repro.core.sqlgen import quote_ident
from repro.faults import FAULT_CLASSES, MutationEngine


def dicts(mutations):
    return [m.to_dict() for m in mutations]


class TestSampling:
    def test_same_seed_same_mutants(self, system):
        a = MutationEngine(system, seed=3).sample(12)
        b = MutationEngine(system, seed=3).sample(12)
        assert dicts(a) == dicts(b)

    def test_longer_campaign_extends_shorter(self, system):
        # --count 25 must be a prefix of --count 50: CI's smoke slice is
        # compared mutant-for-mutant against the committed full baseline.
        short = MutationEngine(system, seed=0).sample(8)
        long = MutationEngine(system, seed=0).sample(20)
        assert dicts(long[:8]) == dicts(short)

    def test_different_seeds_differ(self, system):
        a = MutationEngine(system, seed=0).sample(10)
        b = MutationEngine(system, seed=1).sample(10)
        assert dicts(a) != dicts(b)

    def test_mutant_ids_are_sequential(self, system):
        ms = MutationEngine(system, seed=0).sample(5)
        assert [m.mutant_id for m in ms] == [0, 1, 2, 3, 4]

    def test_unknown_class_rejected(self, system):
        with pytest.raises(ValueError, match="unknown fault classes"):
            MutationEngine(system, classes=("flip-bits", "drop-row"))

    def test_classes_filter_is_respected(self, system):
        ms = MutationEngine(system, seed=2, classes=("drop-row",)).sample(6)
        assert {m.fault_class for m in ms} == {"drop-row"}

    def test_every_class_eventually_sampled(self, system):
        ms = MutationEngine(system, seed=0).sample(60)
        assert {m.fault_class for m in ms} == set(FAULT_CLASSES)

    def test_table_filter_restricts_targets(self, system):
        ms = MutationEngine(
            system, seed=1, tables=("D",),
            classes=("drop-row", "flip-next-state")).sample(8)
        assert {m.target for m in ms} == {"D"}

    def test_table_filter_prunes_channel_class(self, system):
        # reassign-channel targets V, not a controller table, so any
        # table filter disables it.
        engine = MutationEngine(system, seed=0, tables=("D",))
        assert "reassign-channel" not in engine.classes

    def test_no_applicable_class_rejected(self, system):
        with pytest.raises(ValueError, match="applicable"):
            MutationEngine(system, tables=("D",),
                           classes=("reassign-channel",))


class TestApply:
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_apply_changes_the_clone(self, system, clone_of, fault_class):
        mutation = MutationEngine(
            system, seed=7, classes=(fault_class,)).sample(1)[0]
        assert mutation.fault_class == fault_class
        clone = clone_of(system)
        mutation.apply_to(clone)
        if fault_class == "reassign-channel":
            mutated = clone.channel_assignments["v5d"]
            original = system.channel_assignments["v5d"]
            assert mutated.assignments != original.assignments
        elif fault_class == "relax-constraint":
            # Relaxing a constraint to TRUE can only admit more rows.
            assert (clone.db.row_count(mutation.target)
                    >= system.db.row_count(mutation.target))
        else:
            cols = system.tables[mutation.target].schema.column_names
            assert not _same_rows(system.db, clone.db, mutation.target, cols)

    def test_drop_row_removes_exactly_one(self, system, clone_of):
        mutation = MutationEngine(
            system, seed=0, classes=("drop-row",)).sample(1)[0]
        clone = clone_of(system)
        mutation.apply_to(clone)
        assert (clone.db.row_count(mutation.target)
                == system.db.row_count(mutation.target) - 1)

    def test_duplicate_row_adds_exactly_one(self, system, clone_of):
        mutation = MutationEngine(
            system, seed=0, classes=("duplicate-row",)).sample(1)[0]
        clone = clone_of(system)
        mutation.apply_to(clone)
        assert (clone.db.row_count(mutation.target)
                == system.db.row_count(mutation.target) + 1)

    def test_source_system_is_never_touched(self, system, clone_of):
        before = {n: system.db.row_count(n) for n in system.tables}
        for mutation in MutationEngine(system, seed=4).sample(10):
            mutation.apply_to(clone_of(system))
        assert {n: system.db.row_count(n) for n in system.tables} == before
        assert system.check_invariants().passed


class TestOverlapCheck:
    """The determinism check's equality-keyed self-join returns the pairs
    the former OR-join and rowid-fetch loop did, pair for pair and in
    order."""

    @pytest.mark.parametrize("mutant", range(50))
    def test_every_seed0_mutant_matches_or_join(self, system, clone_of,
                                                 mutant):
        mutation = MutationEngine(system, seed=0).sample(mutant + 1)[-1]
        clone = clone_of(system)
        mutation.apply_to(clone)
        # A channel move writes no table: check the clean ones.
        for name in mutation.tables or tuple(clone.tables):
            table = clone.tables[name]
            assert table.overlapping_pairs()[1] == _rowid_fetch_overlaps(
                table)

    @pytest.mark.parametrize("fault_class, tables", [
        ("duplicate-row", ("D",)),
        ("relax-constraint", None),
    ])
    def test_pairs_match_rowid_fetch_reference(self, system, clone_of,
                                               fault_class, tables):
        mutation = MutationEngine(system, seed=0, classes=(fault_class,),
                                  tables=tables).sample(1)[0]
        clone = clone_of(system)
        mutation.apply_to(clone)
        table = clone.tables[mutation.target]
        pairs = table.overlapping_pairs()[1]
        assert pairs  # both mutants make the table non-deterministic
        assert pairs == _rowid_fetch_overlaps(table)


def _rowid_fetch_overlaps(table):
    """The former algorithm: a self-join reading every input NULL as a
    dontcare for the rowid pairs, then one ``SELECT *`` per row of each
    pair."""
    t = quote_ident(table.table_name)
    conds = " AND ".join(
        f"(a.{q} IS b.{q} OR a.{q} IS NULL OR b.{q} IS NULL)"
        for q in map(quote_ident, table.schema.input_names))
    hits = table.db.query(
        f"SELECT a.rowid AS ra, b.rowid AS rb FROM {t} a JOIN {t} b "
        f"ON a.rowid < b.rowid AND {conds}")

    def fetch(rid):
        row = table.db.query(f"SELECT * FROM {t} WHERE rowid = ?", (rid,))[0]
        return {c: row[c] for c in table.schema.column_names}

    return [(fetch(h["ra"]), fetch(h["rb"])) for h in hits]


def _same_rows(db_a, db_b, table, cols):
    order = list(cols)
    return db_a.rows(table, order_by=order) == db_b.rows(table, order_by=order)
