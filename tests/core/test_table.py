"""Unit tests for ControllerTable: lookup, wildcards, determinism."""

import pytest

from repro import telemetry
from repro.core.schema import Column, Role, SchemaError, TableSchema
from repro.core.sqlgen import quote_ident
from repro.core.table import (
    AmbiguousMatchError,
    ControllerTable,
    NoMatchError,
)


@pytest.fixture()
def schema():
    return TableSchema("t", [
        Column("i1", ("a", "b"), Role.INPUT, nullable=True),
        Column("i2", ("p", "q"), Role.INPUT, nullable=False),
        Column("o", ("x", "y"), Role.OUTPUT),
    ])


ROWS = [
    {"i1": "a", "i2": "p", "o": "x"},
    {"i1": "a", "i2": "q", "o": "y"},
    {"i1": "b", "i2": "p", "o": None},
]


@pytest.fixture()
def table(db, schema):
    return ControllerTable.from_rows(db, schema, ROWS)


class TestConstruction:
    def test_row_count(self, table):
        assert table.row_count == 3

    def test_rows_roundtrip(self, table):
        assert sorted(r["i2"] for r in table.rows()) == ["p", "p", "q"]

    def test_invalid_row_rejected(self, db, schema):
        with pytest.raises(SchemaError):
            ControllerTable.from_rows(
                db, schema, [{"i1": "a", "i2": "ZZZ", "o": "x"}]
            )

    def test_validation_can_be_skipped(self, db, schema):
        t = ControllerTable.from_rows(
            db, schema, [{"i1": "a", "i2": "ZZZ", "o": "x"}], validate=False
        )
        assert t.row_count == 1

    def test_missing_table_rejected(self, db, schema):
        with pytest.raises(SchemaError, match="no table"):
            ControllerTable(db, schema, "ghost")

    def test_distinct(self, table):
        assert set(table.distinct("o")) == {"x", "y", None}


class TestLookup:
    def test_exact_lookup(self, table):
        assert table.lookup(i1="a", i2="q")["o"] == "y"

    def test_lookup_requires_all_inputs(self, table):
        with pytest.raises(SchemaError, match="missing input"):
            table.lookup(i1="a")

    def test_lookup_rejects_output_columns(self, table):
        with pytest.raises(SchemaError, match="not an input"):
            table.match_rows({"o": "x"})

    def test_no_match(self, table):
        with pytest.raises(NoMatchError):
            table.lookup(i1="b", i2="q")

    def test_try_lookup_none(self, table):
        assert table.try_lookup(i1="b", i2="q") is None

    def test_match_rows_partial(self, table):
        assert len(table.match_rows({"i1": "a"})) == 2

    def test_null_input_is_wildcard(self, db, schema):
        t = ControllerTable.from_rows(db, schema, [
            {"i1": None, "i2": "p", "o": "x"},  # dontcare i1
        ])
        assert t.lookup(i1="a", i2="p")["o"] == "x"
        assert t.lookup(i1="b", i2="p")["o"] == "x"

    def test_wildcard_overlap_is_ambiguous(self, db, schema):
        t = ControllerTable.from_rows(db, schema, [
            {"i1": None, "i2": "p", "o": "x"},
            {"i1": "a", "i2": "p", "o": "y"},
        ])
        with pytest.raises(AmbiguousMatchError):
            t.lookup(i1="a", i2="p")


class TestDeterminism:
    def test_disjoint_rows_deterministic(self, table):
        assert table.is_deterministic()

    def test_wildcard_overlap_detected(self, db, schema):
        t = ControllerTable.from_rows(db, schema, [
            {"i1": None, "i2": "p", "o": "x"},
            {"i1": "a", "i2": "p", "o": "y"},
        ])
        pairs = t.overlapping_pairs()[1]
        assert len(pairs) == 1
        assert {pairs[0][0]["o"], pairs[0][1]["o"]} == {"x", "y"}

    def test_duplicate_rows_detected(self, db, schema):
        t = ControllerTable.from_rows(db, schema, [ROWS[0], ROWS[0]])
        assert not t.is_deterministic()

    @pytest.mark.parametrize("copies", [1, 2, 6])
    def test_one_statement_whatever_the_pair_count(self, db, schema,
                                                   copies):
        t = ControllerTable.from_rows(db, schema, [ROWS[0]] * copies)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            pairs = t.overlapping_pairs()[1]
        assert len(pairs) == copies * (copies - 1) // 2
        assert all(a == b == ROWS[0] for a, b in pairs)
        assert tracer.registry.counter("sql.queries") == 1
        # The count covers every pair; the limit only trims the list.
        assert t.overlapping_pairs(limit=1) == (len(pairs), pairs[:1])

    @pytest.mark.parametrize("i1_values, i2_values", [
        (("a", "b"), ("p", "q")),              # NULL in no input column
        (("a", "b", None), ("p", "q")),        # in the nullable one
        (("a", "b"), ("p", "q", None)),        # edited into i2 alone
        (("a", "b", None), ("p", "q", None)),  # in every input column
    ], ids=["none", "some", "edited", "every"])
    def test_pairs_match_or_join_reference(self, db, schema, i1_values,
                                           i2_values):
        rows = [{"i1": i1, "i2": i2, "o": o} for i1 in i1_values
                for i2 in i2_values for o in ("x", "y")]
        t = ControllerTable.from_rows(db, schema, rows, validate=False)
        pairs = t.overlapping_pairs()[1]
        assert pairs and pairs == _or_join_overlaps(t)

    def test_two_wildcards_overlap(self, db, schema):
        t = ControllerTable.from_rows(db, schema, [
            {"i1": None, "i2": "p", "o": "x"},
            {"i1": None, "i2": "p", "o": "y"},
        ])
        assert len(t.overlapping_pairs()[1]) == 1


def _or_join_overlaps(table):
    """The determinism check before its equality join: one self-join
    reading every input NULL as a dontcare, in rowid order."""
    t = quote_ident(table.table_name)
    names = table.schema.column_names
    conds = " AND ".join(
        f"(a.{q} IS b.{q} OR a.{q} IS NULL OR b.{q} IS NULL)"
        for q in map(quote_ident, table.schema.input_names))
    selected = ", ".join(f"{side}.{quote_ident(c)}"
                         for side in "ab" for c in names)
    hits = table.db.query_tuples(
        f"SELECT {selected} FROM {t} a JOIN {t} b "
        f"ON a.rowid < b.rowid AND {conds} ORDER BY a.rowid, b.rowid")
    n = len(names)
    return [(dict(zip(names, h[:n])), dict(zip(names, h[n:]))) for h in hits]


class TestDerivation:
    def test_project(self, table):
        p = table.project("proj", ("i1", "o"))
        assert p.schema.column_names == ("i1", "o")
        assert p.row_count == 3

    def test_project_distinct_collapses(self, db, schema):
        t = ControllerTable.from_rows(db, schema, ROWS)
        p = t.project("proj", ("i1",))
        assert p.row_count == 2

    def test_stats(self, table):
        s = table.stats()
        assert s.n_rows == 3 and s.n_inputs == 2 and s.n_outputs == 1
        assert s.values_per_column["i1"] == 3  # two values + NULL
