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
from repro.core.database import ProtocolDatabase
from repro.core.expr import C, FALSE, TRUE, cases, when
from repro.core.generator import GenerationBudgetError, TableGenerator
from repro.core.schema import Column, Role, TableSchema


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
    def test_incremental_enumerates_less(self, db):
        cs = small_constraints()
        inc = TableGenerator(db, cs, table_name="i").generate_incremental()
        mono = TableGenerator(db, cs, table_name="m").generate_monolithic()
        assert inc.total_enumerated < mono.total_enumerated

    def test_step_labels(self, db):
        res = TableGenerator(db, small_constraints()).generate_incremental()
        assert res.steps[0].label == "inputs"
        assert all(s.label.startswith("+") for s in res.steps[1:])

    def test_monolithic_single_step(self, db):
        res = TableGenerator(
            db, small_constraints(), table_name="m"
        ).generate_monolithic()
        assert len(res.steps) == 1
        assert res.steps[0].cross_product_size == 2 * 3 * 3 * 2

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
    schema = TableSchema("t", [
        Column("i1", _vals1, Role.INPUT, nullable=False),
        Column("i2", _vals2, Role.INPUT, nullable=False),
        Column("o1", ("x", "y"), Role.OUTPUT),
    ])
    cs = ConstraintSet(schema)
    cs.set("i1", C("i1").ne(i1_forbidden) | C("i2").eq("p"))
    cs.set("o1", o1_expr)
    with ProtocolDatabase() as db:
        inc = TableGenerator(db, cs, table_name="i").generate_incremental()
        mono = TableGenerator(db, cs, table_name="m").generate_monolithic()
        expected = canon(brute_force(cs))
        assert canon(inc.table.rows()) == expected
        assert canon(mono.table.rows()) == expected
        # Either step form emits the plain cross join's row sequence.
        with mock.patch.object(generator, "guarded_arms", return_value=None):
            TableGenerator(db, cs, table_name="x").generate_incremental()
        in_order = "SELECT i1, i2, o1 FROM {} ORDER BY rowid"
        assert (db.query(in_order.format("i"))
                == db.query(in_order.format("x")))
