"""Unit tests for SQL compilation of constraint expressions."""

import sqlite3

import pytest

from repro.core.expr import (
    And,
    BoolExpr,
    C,
    cases,
    FALSE,
    In,
    lit,
    Not,
    NotIn,
    Or,
    TRUE,
    when,
)
from repro.core.sqlgen import SqlCompileError, quote_ident, quote_value, to_sql


def sql_eval(expr: BoolExpr, row: dict) -> bool:
    """Evaluate a compiled expression against one row in SQLite."""
    conn = sqlite3.connect(":memory:")
    cols = ", ".join(quote_ident(c) for c in row)
    conn.execute(f"CREATE TABLE t ({cols})")
    marks = ", ".join("?" for _ in row)
    conn.execute(f"INSERT INTO t VALUES ({marks})", tuple(row.values()))
    n = conn.execute(f"SELECT COUNT(*) FROM t WHERE {to_sql(expr)}").fetchone()[0]
    conn.close()
    return n == 1


class TestQuoting:
    def test_quote_value_null(self):
        assert quote_value(None) == "NULL"

    def test_quote_value_plain(self):
        assert quote_value("abc") == "'abc'"

    def test_quote_value_escapes_single_quotes(self):
        assert quote_value("o'brien") == "'o''brien'"

    def test_quote_ident(self):
        assert quote_ident("col") == '"col"'

    def test_quote_ident_escapes_double_quotes(self):
        assert quote_ident('we"ird') == '"we""ird"'

    def test_value_with_quote_roundtrips_through_sqlite(self):
        assert sql_eval(C("x").eq("o'brien"), {"x": "o'brien"})


class TestCompilation:
    def test_eq_uses_is(self):
        assert "IS" in to_sql(C("x").eq("a"))

    def test_eq_null_safe_in_sqlite(self):
        assert sql_eval(C("x").is_null(), {"x": None})
        assert not sql_eval(C("x").eq("a"), {"x": None})

    def test_ne_null_safe(self):
        assert sql_eval(C("x").not_null(), {"x": "a"})
        assert not sql_eval(C("x").not_null(), {"x": None})

    def test_in_expands_to_is_disjunction(self):
        sql = to_sql(C("x").isin(("a", "b")))
        assert sql.count("IS") == 2 and "OR" in sql

    def test_in_with_null_member(self):
        assert sql_eval(C("x").isin(("a", None)), {"x": None})

    def test_empty_in_is_false(self):
        assert not sql_eval(In(C("x"), ()), {"x": "a"})

    def test_empty_notin_is_true(self):
        assert sql_eval(NotIn(C("x"), ()), {"x": "a"})

    def test_and_or_not(self):
        e = (C("x").eq("a") & C("y").eq("b")) | ~C("z").eq("c")
        assert sql_eval(e, {"x": "a", "y": "b", "z": "c"})
        assert sql_eval(e, {"x": "q", "y": "q", "z": "q"})
        assert not sql_eval(e, {"x": "q", "y": "b", "z": "c"})

    def test_true_false(self):
        assert sql_eval(TRUE, {"x": "a"})
        assert not sql_eval(FALSE, {"x": "a"})

    def test_ternary_compiles_to_case(self):
        sql = to_sql(when(C("a").eq("1"), C("o").eq("x"), C("o").is_null()))
        assert sql.startswith("(CASE WHEN") and sql.endswith("END)")

    def test_ternary_semantics(self):
        e = when(C("a").eq("1"), C("o").eq("x"), C("o").is_null())
        assert sql_eval(e, {"a": "1", "o": "x"})
        assert not sql_eval(e, {"a": "1", "o": None})
        assert sql_eval(e, {"a": "2", "o": None})

    def test_long_cases_chain_stays_flat(self):
        # Nested ternaries used to overflow SQLite's parser stack; the
        # CASE form keeps depth constant regardless of chain length.
        branches = [
            (C("a").eq(str(i)), C("o").eq(f"v{i}")) for i in range(200)
        ]
        e = cases(*branches, default=C("o").is_null())
        sql = to_sql(e)
        assert sql.count("WHEN") == 200
        assert sql_eval(e, {"a": "137", "o": "v137"})
        assert sql_eval(e, {"a": "nope", "o": None})

    def test_qualifier_prefixes_columns(self):
        assert 't."x"' in to_sql(C("x").eq("a"), qualifier="t")

    def test_qualifier_maps_columns(self):
        sql = to_sql(C("x").eq(C("y")), qualifier={"x": "t0.v", "y": 'w."y"'})
        assert sql == '(t0.v IS w."y")'

    def test_bare_column_not_compilable_as_bool(self):
        with pytest.raises(SqlCompileError):
            to_sql(C("x"))
