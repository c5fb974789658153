"""Unit and property tests for table generation.

The central contract (paper section 3): the generated table is exactly
the set of satisfying assignments of the constraint conjunction over the
cross product of column tables — and the incremental strategy produces
the same table as the monolithic one.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import generator
from repro.core.constraints import ConstraintSet
from repro.core.database import DatabaseError, ProtocolDatabase
from repro.core.expr import C, FALSE, TRUE, cases, when
from repro.core.generator import (
    MAX_LOOPS, GenerationBudgetError, TableGenerator,
)
from repro.core.mapping import ImplementationMapper
from repro.core.schema import Column, Role, TableSchema
from repro.protocols.asura.hardware import extension_spec
from repro.protocols.family import SPECS, build_variant


def small_schema():
    return TableSchema("t", [
        Column("i1", ("a", "b"), Role.INPUT, nullable=False),
        Column("i2", ("p", "q", "r"), Role.INPUT, nullable=False),
        Column("o1", ("x", "y"), Role.OUTPUT),
        Column("o2", ("u",), Role.OUTPUT),
    ])


def small_constraints():
    cs = ConstraintSet(small_schema())
    cs.set("i2", when(C("i1").eq("a"), C("i2").ne("r"), TRUE))
    cs.set("o1", cases(
        (C("i1").eq("a"), C("o1").eq("x")),
        (C("i2").eq("p"), C("o1").eq("y")),
        default=C("o1").is_null(),
    ))
    cs.set("o2", when(C("o1").eq("x"), C("o2").eq("u"), C("o2").is_null()))
    return cs


def brute_force(cs):
    """Reference semantics: filter the full cross product in Python."""
    schema = cs.schema
    conj = cs.conjunction()
    rows = []
    domains = [schema.column(c).domain for c in schema.column_names]
    for combo in itertools.product(*domains):
        row = dict(zip(schema.column_names, combo))
        if conj.eval(row):
            rows.append(row)
    return rows


def generation_order(cs):
    """Inputs in schema order, then output columns in plan order: the
    loop order of the generating join."""
    return list(cs.schema.input_names) + [
        c for group in cs.generation_plan() for c in group]


def in_loop_order(rows, schema, columns):
    """``rows`` sorted by each column's domain position, ``columns``
    first: the order nested loops over the domains emit them in."""
    pos = {c: {v: i for i, v in enumerate(schema.column(c).domain)}
           for c in columns}
    return sorted(rows, key=lambda r: tuple(pos[c][r[c]] for c in columns))


def canon(rows):
    # Sorted by repr: a column may hold both NULL and strings.
    return sorted((tuple(sorted(r.items(), key=lambda kv: kv[0]))
                   for r in rows), key=repr)


class TestStrategiesAgree:
    def test_incremental_matches_brute_force(self, db):
        cs = small_constraints()
        res = TableGenerator(db, cs).generate_incremental()
        assert canon(res.table.rows()) == canon(brute_force(cs))

    def test_monolithic_matches_brute_force(self, db):
        cs = small_constraints()
        res = TableGenerator(db, cs, table_name="m").generate_monolithic()
        assert canon(res.table.rows()) == canon(brute_force(cs))

    def test_both_strategies_identical(self, db):
        cs = small_constraints()
        inc = TableGenerator(db, cs, table_name="inc").generate_incremental()
        mono = TableGenerator(db, cs, table_name="mono").generate_monolithic()
        assert canon(inc.table.rows()) == canon(mono.table.rows())


class TestAccounting:
    def test_monolithic_single_step(self, db):
        res = TableGenerator(
            db, small_constraints(), table_name="m"
        ).generate_monolithic()
        assert res.strategy == "monolithic"
        assert res.table.row_count == len(brute_force(small_constraints()))

    def test_budget_guard(self, db):
        with pytest.raises(GenerationBudgetError, match="exceeding"):
            TableGenerator(db, small_constraints()).generate_monolithic(budget=5)


class TestDegenerateCases:
    def test_inconsistent_constraints_give_empty_table(self, db):
        cs = ConstraintSet(small_schema())
        cs.set("o1", FALSE)
        res = TableGenerator(db, cs).generate_incremental()
        assert res.table.row_count == 0

    def test_unconstrained_gives_full_cross_product(self, db):
        cs = ConstraintSet(small_schema())
        res = TableGenerator(db, cs).generate_incremental()
        assert res.table.row_count == small_schema().cross_product_size()

    def test_nullable_column_yields_null(self, db):
        res = TableGenerator(
            db, ConstraintSet(small_schema())).generate_incremental()
        rows = res.table.rows()
        assert {r["o1"] for r in rows} == {"x", "y", None}
        assert {r["i1"] for r in rows} == {"a", "b"}

    def test_output_depending_on_output(self, db):
        # o2 depends on o1: the plan must solve o1 first; results must
        # still match the reference semantics.
        cs = small_constraints()
        res = TableGenerator(db, cs).generate_incremental()
        for row in res.table.rows():
            assert (row["o2"] == "u") == (row["o1"] == "x")

    def test_regeneration_replaces_table(self, db):
        cs = small_constraints()
        TableGenerator(db, cs).generate_incremental()
        res2 = TableGenerator(db, cs).generate_incremental()
        assert res2.table.row_count == len(brute_force(cs))


# -- property: random constraint sets, both strategies == brute force -------

_vals1 = ("a", "b")
_vals2 = ("p", "q")


def _pred(col, values):
    return st.sampled_from(values).map(lambda v: C(col).eq(v))


def random_constraints():
    """Ternary chains of one to four arms.  Most are guarded cases
    (guards over inputs, bodies over ``o1``); conditions that read
    ``o1`` and bodies that read an input exercise the cross-join step."""
    i_pred = st.one_of(_pred("i1", _vals1), _pred("i2", _vals2), st.just(TRUE))
    o_bind = st.sampled_from(("x", "y", None)).map(
        lambda v: C("o1").eq(v) if v else C("o1").is_null()
    )
    o_set = st.one_of(o_bind, st.just(C("o1").ne("x")), st.just(TRUE),
                      st.just(FALSE))
    condition = st.one_of(i_pred, i_pred, o_bind)
    body = st.one_of(o_set, o_set, st.builds(lambda b, p: b | p, o_bind, i_pred))
    return st.builds(
        lambda arms, default: cases(*arms, default=default),
        st.lists(st.tuples(condition, body), min_size=1, max_size=4), body,
    )


@settings(max_examples=100, deadline=None)
@given(o1_expr=random_constraints(), i1_forbidden=st.sampled_from(_vals1))
def test_generation_equals_bruteforce_on_random_specs(o1_expr, i1_forbidden):
    # ``o0`` reads ``o1``, so the plan solves ``o1`` first: generation
    # order differs from schema order.
    schema = TableSchema("t", [
        Column("i1", _vals1, Role.INPUT, nullable=False),
        Column("i2", _vals2, Role.INPUT, nullable=False),
        Column("o0", ("x", "y"), Role.OUTPUT),
        Column("o1", ("x", "y"), Role.OUTPUT),
    ])
    cs = ConstraintSet(schema)
    cs.set("i1", C("i1").ne(i1_forbidden) | C("i2").eq("p"))
    cs.set("o0", when(C("o1").is_null(), C("o0").is_null(), C("o0").ne("y")))
    cs.set("o1", o1_expr)
    with ProtocolDatabase() as db:
        inc = TableGenerator(db, cs, table_name="i").generate_incremental()
        mono = TableGenerator(db, cs, table_name="m").generate_monolithic()
        expected = canon(brute_force(cs))
        assert canon(inc.table.rows()) == expected
        assert canon(mono.table.rows()) == expected
        # Without guarded cases (every loop arm 0), the same sequence.
        with mock.patch.object(generator, "guarded_arms", return_value=None):
            TableGenerator(db, cs, table_name="x").generate_incremental()
        # Rowids follow the loops: the brute-force rows in domain order.
        order = {"i": generation_order(cs), "x": generation_order(cs),
                 "m": list(schema.column_names)}
        for name, columns in order.items():
            assert db.query(f"SELECT * FROM {name} ORDER BY rowid") == \
                in_loop_order(brute_force(cs), schema, columns), name


def generate_explained(db, cs, name=None):
    """Generate ``cs``; also return each table a generating statement
    created, with that statement's ``EXPLAIN QUERY PLAN`` (taken while
    the values table exists)."""
    created = []
    create = ProtocolDatabase.create_table_as

    def explain_then_create(self, table, sql):
        plan = [r["detail"] for r in self.query(f"EXPLAIN QUERY PLAN {sql}")]
        created.append((table, plan))
        create(self, table, sql)

    with mock.patch.object(ProtocolDatabase, "create_table_as",
                           explain_then_create):
        result = TableGenerator(db, cs, table_name=name).generate_incremental()
    return result, created


class TestQueryPlan:
    @pytest.mark.parametrize("name", ["D", "ED"])
    def test_one_statement_loops_in_plan_order(self, system, name):
        """One statement per table: every loop, in generation order, is a
        primary-key search of the values table (a guarded-case column's
        arm is its first true guard, any other column's is 0), and
        nothing is sorted or auto-indexed (either would break the rowid
        order)."""
        cs = system.constraint_sets["D"]
        if name == "ED":
            cs = ImplementationMapper(
                system.db, system.tables["D"], cs,
            ).extended_constraints(extension_spec(cs))
        with ProtocolDatabase() as db:
            _, [(table, plan)] = generate_explained(db, cs, name)
        assert table == name
        assert plan == [
            f"SEARCH t{k} USING PRIMARY KEY (col=? AND arm=?)"
            for k in range(len(generation_order(cs)))]


def wide_constraints(n_outputs=2 * MAX_LOOPS):
    """More columns than one SQLite join takes: outputs alternate a
    guarded case on the previous output with a plain step that reads an
    input, so constraints cross the chunk boundaries."""
    values = ("a", "b")
    cols = [Column("i0", values, Role.INPUT, nullable=False),
            Column("i1", values, Role.INPUT, nullable=False)]
    cols += [Column(f"o{k}", values, Role.OUTPUT) for k in range(n_outputs)]
    cs = ConstraintSet(TableSchema("wide", cols))
    cs.set("i1", C("i1").ne(C("i0")) | C("i0").eq("a"))
    for k in range(n_outputs):
        o, prev = C(f"o{k}"), C(f"o{k - 1}" if k else "i0")
        if k % 2:
            cs.set(f"o{k}", o.eq(C("i1")))
        else:
            cs.set(f"o{k}", when(prev.eq("a"), o.eq("b"), o.eq("a")))
    return cs


def extend_in_python(cs):
    """The incremental solve without SQL: every legal input combination,
    then each plan group's values, in domain order."""
    schema = cs.schema
    inputs = schema.input_names
    rows = [dict(zip(inputs, combo)) for combo in itertools.product(
        *(schema.column(c).domain for c in inputs))]
    rows = [r for r in rows if cs.input_conjunction().eval(r)]
    for group in cs.generation_plan():
        domains = [schema.column(c).domain for c in group]
        rows = [new for r in rows for combo in itertools.product(*domains)
                for new in [{**r, **dict(zip(group, combo))}]
                if all(cs.get(c).expr.eval(new) for c in group)]
    return [{c: r[c] for c in schema.column_names} for r in rows]


class TestWideSchema:
    def test_chunks_extend_a_working_table(self, db):
        cs = wide_constraints()
        assert len(cs.schema.column_names) > 2 * MAX_LOOPS
        res, created = generate_explained(db, cs)
        assert [table for table, _ in created] == [
            "__gen_wide_0", "__gen_wide_63", "wide"]
        assert db.query("SELECT * FROM wide ORDER BY rowid") == \
            extend_in_python(cs)
        assert res.table.row_count == 3
        assert db.query(
            "SELECT name FROM sqlite_master WHERE name GLOB '__*'") == []

    def test_chunks_match_cross_join(self, db):
        cs = wide_constraints()
        TableGenerator(db, cs, table_name="w").generate_incremental()
        with mock.patch.object(generator, "guarded_arms", return_value=None):
            TableGenerator(db, cs, table_name="x").generate_incremental()
        assert (db.query("SELECT * FROM w ORDER BY rowid")
                == db.query("SELECT * FROM x ORDER BY rowid"))


def scratch_tables(db):
    return db.query(
        "SELECT name FROM sqlite_master WHERE name GLOB 'col_*' "
        "OR name GLOB '__vals_*' OR name GLOB '__gen_*'")


class TestNoScratchTables:
    """Domains live only inside one generation: a generated database
    holds no column, values or chunk table, even after a failure."""

    @pytest.mark.parametrize("key", tuple(SPECS))
    def test_member_database_holds_no_scratch_table(self, key):
        system = build_variant(key)
        try:
            assert scratch_tables(system.db) == []
        finally:
            system.db.close()

    @pytest.mark.parametrize("make_cs, failing", [
        (small_constraints, "t"), (wide_constraints, "wide")])
    def test_failed_statement_leaves_no_scratch_table(
            self, db, make_cs, failing):
        create = ProtocolDatabase.create_table_as

        def fail_on_target(self, table, sql):
            if table == failing:
                raise DatabaseError("injected failure")
            create(self, table, sql)

        with mock.patch.object(ProtocolDatabase, "create_table_as",
                               fail_on_target), \
                pytest.raises(DatabaseError, match="injected"):
            TableGenerator(db, make_cs()).generate_incremental()
        assert scratch_tables(db) == []
        assert not db.table_exists(failing)
