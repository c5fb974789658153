"""Column constraints and constraint sets.

Paper section 3: "An SQL constraint called a column constraint is then
specified for each column of the controller table. ... The column
constraint for an unconstrained column is true."

A :class:`ConstraintSet` holds one constraint per column of a schema,
validates that every referenced column and literal is legal, and computes
the column ordering used by incremental generation (outputs are added "one
column at a time", so each output's constraint may only depend on columns
generated before it; mutually-dependent outputs form a group solved
jointly: a strongly connected component of the dependency graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .expr import (
    And,
    BoolExpr,
    Col,
    Eq,
    Expr,
    In,
    Lit,
    Ne,
    Not,
    NotIn,
    Or,
    Ternary,
    TRUE,
)
from .schema import Column, Role, SchemaError, TableSchema

__all__ = ["ColumnConstraint", "ConstraintSet", "ConstraintError", "iter_nodes",
           "strongly_connected_components"]


class ConstraintError(ValueError):
    """A constraint is malformed: unknown column, out-of-domain literal,
    duplicate definition, or an illegal input/output dependency."""


def iter_nodes(expr: Expr) -> Iterator[Expr]:
    """Depth-first iteration over every node of an expression tree."""
    yield expr
    if isinstance(expr, (Eq, Ne)):
        yield from iter_nodes(expr.left)
        yield from iter_nodes(expr.right)
    elif isinstance(expr, (In, NotIn)):
        yield from iter_nodes(expr.operand)
    elif isinstance(expr, (And, Or)):
        for op in expr.operands:
            yield from iter_nodes(op)
    elif isinstance(expr, Not):
        yield from iter_nodes(expr.operand)
    elif isinstance(expr, Ternary):
        yield from iter_nodes(expr.condition)
        yield from iter_nodes(expr.if_true)
        yield from iter_nodes(expr.if_false)


@dataclass(frozen=True)
class ColumnConstraint:
    """The constraint attached to one column of a controller table."""

    column: str
    expr: BoolExpr

    def validate(self, schema: TableSchema) -> None:
        """Check all referenced columns exist and all literals compared
        against a column are in that column's domain (catches typos in
        protocol specs before they silently produce empty tables)."""
        if self.column not in schema:
            raise ConstraintError(
                f"constraint targets unknown column {self.column!r} of {schema.name!r}"
            )
        for node in iter_nodes(self.expr):
            if isinstance(node, Col) and node.name not in schema:
                raise ConstraintError(
                    f"constraint on {self.column!r} references unknown column "
                    f"{node.name!r} of table {schema.name!r}"
                )
            if isinstance(node, (Eq, Ne)):
                self._check_comparison(schema, node.left, node.right)
            if isinstance(node, (In, NotIn)) and isinstance(node.operand, Col):
                col = schema.column(node.operand.name)
                for v in node.values:
                    if not col.admits(v):
                        raise ConstraintError(
                            f"constraint on {self.column!r}: value {v!r} not in the "
                            f"domain of column {node.operand.name!r}"
                        )

    @staticmethod
    def _check_comparison(schema: TableSchema, left, right) -> None:
        pairs = ((left, right), (right, left))
        for a, b in pairs:
            if isinstance(a, Col) and isinstance(b, Lit):
                if a.name not in schema:
                    continue  # reported as an unknown column, not a bad value
                col = schema.column(a.name)
                if not col.admits(b.value):
                    raise ConstraintError(
                        f"value {b.value!r} compared against column {a.name!r} "
                        f"is not in its domain"
                    )

    def dependencies(self) -> frozenset[str]:
        """Columns this constraint reads, excluding the constrained column."""
        return self.expr.free_columns() - {self.column}


class ConstraintSet:
    """One constraint per column of a schema (missing columns default to
    the unconstrained ``TRUE``)."""

    def __init__(
        self,
        schema: TableSchema,
        constraints: Iterable[ColumnConstraint] = (),
    ) -> None:
        self.schema = schema
        self._by_column: dict[str, ColumnConstraint] = {}
        for c in constraints:
            self.add(c)

    def add(self, constraint: ColumnConstraint) -> None:
        constraint.validate(self.schema)
        if constraint.column in self._by_column:
            raise ConstraintError(
                f"duplicate constraint for column {constraint.column!r}; "
                "conjoin the expressions instead"
            )
        self._by_column[constraint.column] = constraint

    def set(self, column: str, expr: BoolExpr) -> None:
        self.add(ColumnConstraint(column, expr))

    def replace(self, column: str, expr: BoolExpr) -> BoolExpr:
        """Replace a column's constraint (the revision workflow: edit one
        constraint, regenerate, diff).  Returns the previous expression."""
        previous = self.get(column).expr
        self._by_column.pop(column, None)
        self.set(column, expr)
        return previous

    def copy(self) -> "ConstraintSet":
        """An independent copy (the constraints themselves are immutable)."""
        other = ConstraintSet(self.schema)
        other._by_column = dict(self._by_column)
        return other

    def get(self, column: str) -> ColumnConstraint:
        """The constraint for ``column``; TRUE if unconstrained."""
        self.schema.column(column)  # raises on unknown columns
        return self._by_column.get(column, ColumnConstraint(column, TRUE))

    def __iter__(self) -> Iterator[ColumnConstraint]:
        for name in self.schema.column_names:
            yield self.get(name)

    def __len__(self) -> int:
        return len(self._by_column)

    # -- conjunction ------------------------------------------------------------
    def conjunction(self) -> BoolExpr:
        """The conjunction of every column constraint — the formula whose
        satisfying assignments *are* the controller table (section 3)."""
        parts = tuple(c.expr for c in self if not isinstance(c.expr, type(TRUE)))
        if not parts:
            return TRUE
        if len(parts) == 1:
            return parts[0]
        return And(parts)

    # -- incremental ordering ------------------------------------------------------
    def generation_plan(self) -> list[tuple[str, ...]]:
        """Ordered groups of *output* columns for incremental generation.

        Each group's constraints depend only on input columns and on
        outputs from earlier groups.  Mutually-dependent outputs land in
        the same group (solved jointly).  Raises if an output constraint
        references a column that is neither an input nor an output.
        """
        inputs = set(self.schema.input_names)
        outputs = list(self.schema.output_names)
        edges: list[tuple[str, str]] = []
        for name in outputs:
            for dep in self.get(name).dependencies():
                if dep in inputs:
                    continue
                if dep not in outputs:
                    raise ConstraintError(
                        f"output column {name!r} depends on unknown column {dep!r}"
                    )
                edges.append((dep, name))  # dep must be generated before name
        # Keep schema order within a group for reproducible output.
        return [tuple(c for c in outputs if c in members)
                for members in strongly_connected_components(outputs, edges)]

    def input_conjunction(self) -> BoolExpr:
        """Conjunction of constraints on input columns only.

        These define the legal input combinations ("Initially, the
        constraints corresponding to the inputs of D were solved to
        generate a table containing all the legal input combinations").
        Input constraints may only reference input columns.
        """
        inputs = set(self.schema.input_names)
        parts = []
        for name in self.schema.input_names:
            c = self.get(name)
            bad = c.expr.free_columns() - inputs
            if bad:
                raise ConstraintError(
                    f"input column {name!r} constraint references output columns "
                    f"{sorted(bad)}; input constraints must be over inputs only"
                )
            if not isinstance(c.expr, type(TRUE)):
                parts.append(c.expr)
        if not parts:
            return TRUE
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))


def strongly_connected_components(
        vertices: Iterable[Hashable],
        edges: Iterable[tuple]) -> list[tuple]:
    """The strongly connected components in topological order: every
    edge between two components leads from an earlier one to a later
    one.  Vertices only named by ``edges`` are included.  Iterative
    Tarjan, deterministic for a given vertex and edge order."""
    succ: dict = {v: [] for v in vertices}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    done = len(succ)  # the index of a finished vertex: lowers no low-link
    index: dict = {}
    low: dict = {}
    stack: list = []
    components: list[tuple] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        index[w] = done
                    components.append(tuple(component))
    # Tarjan finishes a component only after everything it reaches.
    return components[::-1]
