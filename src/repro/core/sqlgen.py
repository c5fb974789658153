"""Compile constraint expressions to SQLite SQL.

The compilation target is a boolean SQL expression usable in a ``WHERE``
clause.  NULL handling follows the paper's dontcare/noop semantics: the
AST's ``Eq`` is *NULL-safe*, so it compiles to SQLite's ``IS`` operator
(``x IS y`` is true when both are NULL, unlike ``x = y``).  Set membership
expands into an ``IS``-disjunction for the same reason.

Column references may be qualified (``alias.column``), or each mapped to
the SQL that reads it, so the same expression can be compiled against a
bare table or a join.
"""

from __future__ import annotations

from typing import Mapping, Union

from .expr import (
    And,
    BoolExpr,
    Col,
    Eq,
    Expr,
    FalseExpr,
    In,
    Lit,
    Ne,
    Not,
    NotIn,
    Or,
    Ternary,
    TrueExpr,
    Value,
    ValueExpr,
)

__all__ = ["to_sql", "quote_value", "quote_ident", "SqlCompileError"]


#: an alias prefixing every column, or column name -> the SQL reading it.
Qualifier = Union[str, Mapping[str, str], None]


class SqlCompileError(TypeError):
    """Raised when an expression node has no SQL translation."""


def quote_value(value: Value) -> str:
    """Render a literal as a SQL token; ``None`` becomes ``NULL``."""
    if value is None:
        return "NULL"
    return "'" + value.replace("'", "''") + "'"


def quote_ident(name: str) -> str:
    """Render an identifier (column/table name) double-quoted."""
    return '"' + name.replace('"', '""') + '"'


def _value_sql(e: ValueExpr, qualifier: Qualifier) -> str:
    if isinstance(e, Col):
        if not qualifier:
            return quote_ident(e.name)
        if isinstance(qualifier, str):
            return f"{qualifier}.{quote_ident(e.name)}"
        return qualifier[e.name]
    if isinstance(e, Lit):
        return quote_value(e.value)
    raise SqlCompileError(f"cannot compile value expression {e!r}")


def _membership_sql(
    operand: ValueExpr, values: tuple[Value, ...], qualifier: Qualifier, negate: bool
) -> str:
    if not values:
        # Membership in the empty set is vacuously false.
        return "(1 = 0)" if not negate else "(1 = 1)"
    lhs = _value_sql(operand, qualifier)
    parts = [f"{lhs} IS {quote_value(v)}" for v in values]
    joined = " OR ".join(parts)
    return f"(NOT ({joined}))" if negate else f"({joined})"


def to_sql(expr: Expr, qualifier: Qualifier = None) -> str:
    """Compile a boolean expression AST to a SQLite boolean expression.

    ``qualifier`` prefixes every column reference (e.g. the alias of the
    table in a join), or maps each column name to the SQL that reads it.
    The result is always parenthesized so it can be dropped into a larger
    expression.
    """
    if isinstance(expr, TrueExpr):
        return "(1 = 1)"
    if isinstance(expr, FalseExpr):
        return "(1 = 0)"
    if isinstance(expr, Eq):
        return f"({_value_sql(expr.left, qualifier)} IS {_value_sql(expr.right, qualifier)})"
    if isinstance(expr, Ne):
        return f"({_value_sql(expr.left, qualifier)} IS NOT {_value_sql(expr.right, qualifier)})"
    if isinstance(expr, In):
        return _membership_sql(expr.operand, expr.values, qualifier, negate=False)
    if isinstance(expr, NotIn):
        return _membership_sql(expr.operand, expr.values, qualifier, negate=True)
    if isinstance(expr, And):
        return "(" + " AND ".join(to_sql(op, qualifier) for op in expr.operands) + ")"
    if isinstance(expr, Or):
        return "(" + " OR ".join(to_sql(op, qualifier) for op in expr.operands) + ")"
    if isinstance(expr, Not):
        return f"(NOT {to_sql(expr.operand, qualifier)})"
    if isinstance(expr, Ternary):
        # Compile a ternary *chain* (the paper's nested
        # cond?expr:cond?expr:... constraints) into a single flat
        # CASE WHEN: semantically identical and, unlike nested boolean
        # expansion, immune to SQLite's parser stack depth limit.
        arms = []
        node: Expr = expr
        while isinstance(node, Ternary):
            c = to_sql(node.condition, qualifier)
            t = to_sql(node.if_true, qualifier)
            arms.append(f"WHEN {c} THEN {t}")
            node = node.if_false
        default = to_sql(node, qualifier)
        return "(CASE " + " ".join(arms) + f" ELSE {default} END)"
    if isinstance(expr, BoolExpr):
        raise SqlCompileError(f"no SQL translation for boolean node {type(expr).__name__}")
    raise SqlCompileError(f"expected a boolean expression, got {expr!r}")
