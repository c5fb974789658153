"""Table generation by constraint solving (paper section 3).

Two strategies:

* :meth:`TableGenerator.generate_monolithic` — the naive form: one cross
  join over *all* column tables in schema order with the full constraint
  conjunction in the ``WHERE`` clause.  A conjunct can only be tested once
  every column it reads is bound, so a constraint that reads a late column
  makes the database enumerate the cross product of everything before it;
  this is the configuration the paper reports as taking "around 6 hours"
  for the directory table.

* :meth:`TableGenerator.generate_incremental` — the paper's production
  flow: first solve only the input-column constraints to build the legal
  input combinations, then extend the table one output column (group) at a
  time.  Each extension's cross product is |table so far| × |column
  domain|, so cost grows linearly with columns instead of exponentially
  ("Incremental table generation produces the final table within a few
  minutes").

Both are one ``CREATE TABLE … AS SELECT`` over one values table,
``__vals_<T>(col, arm, seq, v)``: each column's domain (the paper's
column table, NULL included for a nullable column), materialised only
for the generation.  Every loop of the join binds one column from it,
searched by ``(col, arm)`` on its clustered primary key, so each loop
yields its values in domain (``seq``) order.  A plain column is arm 0
with its whole domain.  A column whose constraint is a *guarded case*
(``g0 ? b0 : … : default``, guards over earlier columns, bodies over the
new one) has one arm per body holding the values that body allows, and
its loop searches ``arm = <index of the first true guard>``, so guards
run once per row instead of once per candidate value.  The loops are
joined with ``CROSS JOIN`` (which SQLite keeps as the loop order) and
every constraint is a ``WHERE`` term: the incremental loops are the
inputs, then each plan group's columns; the monolithic ones follow
schema order.  SQLite tests each term at the loop where its last column
binds, so each incremental loop is one extension step and nothing is
materialised between steps; rows come out in loop order, each loop's
column in domain order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..telemetry import get_tracer, span
from .constraints import ConstraintSet
from .database import ProtocolDatabase
from .expr import TRUE, BoolExpr, Ternary, TrueExpr
from .sqlgen import quote_ident, quote_value, to_sql
from .table import ControllerTable

__all__ = ["TableGenerator", "GenerationResult", "GenerationBudgetError"]

#: SQLite joins at most 64 tables; one more is the previous chunk's table.
MAX_LOOPS = 63


class GenerationBudgetError(RuntimeError):
    """The cross product the monolithic strategy would enumerate exceeds
    the configured budget; this is how benchmarks sweep column counts
    without hanging the suite."""


@dataclass
class GenerationResult:
    table: ControllerTable
    strategy: str


@dataclass
class _Loop:
    """One loop of the generating join: it binds ``column`` from arm
    ``i`` of the values table, the values ``bodies[i]`` allows, where
    ``i`` indexes the first true of ``guards`` (``len(guards)`` if none
    is; a plain loop has no guards, so arm 0).  ``terms`` (over the
    columns bound so far) are filtered there."""

    column: str
    terms: list[BoolExpr]
    guards: Sequence[BoolExpr] = ()
    bodies: Sequence[BoolExpr] = (TRUE,)


class TableGenerator:
    """Generates one controller table from its column constraints."""

    def __init__(
        self,
        db: ProtocolDatabase,
        constraints: ConstraintSet,
        table_name: Optional[str] = None,
    ) -> None:
        self.db = db
        self.constraints = constraints
        self.schema = constraints.schema
        self.table_name = table_name or self.schema.name

    # -- monolithic --------------------------------------------------------------
    def generate_monolithic(
        self, budget: Optional[int] = 50_000_000
    ) -> GenerationResult:
        """Solve the conjunction of every column constraint over the full
        cross product of column tables."""
        size = self.schema.cross_product_size()
        if budget is not None and size > budget:
            raise GenerationBudgetError(
                f"monolithic cross product for {self.schema.name!r} has "
                f"{size} rows, exceeding the budget of {budget}; this is the "
                "blow-up the incremental strategy exists to avoid"
            )
        loops = [_Loop(c, []) for c in self.schema.column_names]
        loops[-1].terms.append(self.constraints.conjunction())
        with span("generate.monolithic", table=self.table_name,
                  cross_product=size):
            return self._generate(loops, "monolithic")

    # -- incremental --------------------------------------------------------------
    def generate_incremental(self) -> GenerationResult:
        """Inputs first, then output columns one (group) at a time, as the
        loops of one statement."""
        with span("generate.table", table=self.table_name,
                  strategy="incremental"):
            return self._generate(self._loops(), "incremental")

    def _generate(self, loops: list[_Loop], strategy: str) -> GenerationResult:
        vals = f"__vals_{self.table_name}"
        try:
            self._fill_values(vals, loops)
            self._solve(loops, vals)
        finally:
            self.db.execute(f"DROP TABLE IF EXISTS {quote_ident(vals)}")
        table = ControllerTable(self.db, self.schema, self.table_name)
        get_tracer().incr("generate.rows", table.row_count)
        return GenerationResult(table=table, strategy=strategy)

    def _loops(self) -> list[_Loop]:
        """The generation plan as join loops: inputs in schema order, then
        each plan group's columns in plan order."""
        loops = [_Loop(c, []) for c in self.schema.input_names]
        if loops:
            loops[-1].terms.append(self.constraints.input_conjunction())
        for group in self.constraints.generation_plan():
            exprs = [self.constraints.get(c).expr for c in group]
            # A group of several columns is a cycle of constraints reading
            # each other, so it is never a guarded case.
            arms = guarded_arms(exprs[0], group[0]) if len(group) == 1 else None
            if arms is not None:
                loops.append(_Loop(group[0], [], *arms))
            else:
                loops += [_Loop(c, []) for c in group]
                loops[-1].terms += exprs
        return loops

    def _fill_values(self, vals: str, loops: list[_Loop]) -> None:
        """``vals(col, arm, seq, v)``: each loop's arm-allowed values, the
        ``seq``-th of its column's domain, clustered on the key the loops
        search so each arm's values come out in domain order."""
        self.db.execute(
            f"CREATE TABLE {quote_ident(vals)} (col TEXT, arm INTEGER, "
            "seq INTEGER, v TEXT, PRIMARY KEY (col, arm, seq)) WITHOUT ROWID")
        self.db.executemany(
            f"INSERT INTO {quote_ident(vals)} VALUES (?, ?, ?, ?)",
            [(loop.column, i, seq, v) for loop in loops
             for i, body in enumerate(loop.bodies)
             for seq, v in enumerate(self.schema.column(loop.column).domain)
             if body.eval({loop.column: v})])

    def _solve(self, loops: list[_Loop], vals: str) -> None:
        """``CREATE TABLE <T> AS SELECT`` over ``loops``: one statement, or
        chunks of at most :data:`MAX_LOOPS` loops that each extend the
        previous chunk's table."""
        work: Optional[str] = None
        read: dict[str, str] = {}   # column -> the SQL that reads it
        for start in range(0, len(loops), MAX_LOOPS):
            sources = [f"{quote_ident(work)} AS w"] if work else []
            read = {c: f"w.{quote_ident(c)}" for c in read}
            where = []
            for k, loop in enumerate(loops[start:start + MAX_LOOPS], start):
                alias = f"t{k}"
                arm = "".join(f"WHEN {to_sql(g, read)} THEN {i} "
                              for i, g in enumerate(loop.guards))
                arm = f"(CASE {arm}ELSE {len(loop.guards)} END)" if arm else "0"
                sources.append(f"{quote_ident(vals)} AS {alias}")
                where.append(f"{alias}.col = {quote_value(loop.column)} "
                             f"AND {alias}.arm = {arm}")
                read[loop.column] = f"{alias}.v"
                where += [to_sql(e, read) for e in loop.terms
                          if not isinstance(e, TrueExpr)]
            last = start + MAX_LOOPS >= len(loops)
            target = self.table_name if last else f"__gen_{self.table_name}_{start}"
            cols = ", ".join(f"{read[c]} AS {quote_ident(c)}"
                             for c in (self.schema.column_names if last else read))
            try:
                self.db.create_table_as(
                    target, f"SELECT {cols} FROM {' CROSS JOIN '.join(sources)}"
                    f" WHERE {' AND '.join(where)}")
            finally:
                # The previous chunk's table goes, also when this one fails.
                if work:
                    self.db.drop_table(work)
            work = target


def guarded_arms(
    expr: BoolExpr, column: str
) -> Optional[tuple[list[BoolExpr], list[BoolExpr]]]:
    """``(guards, bodies)`` of a guarded-case constraint on ``column``, or
    None.  The chain ``g0 ? b0 : g1 ? b1 : … : d`` qualifies when no guard
    reads ``column`` and every body (``d`` is the last) reads nothing
    else."""
    guards: list[BoolExpr] = []
    bodies: list[BoolExpr] = []
    node = expr
    while isinstance(node, Ternary):
        guards.append(node.condition)
        bodies.append(node.if_true)
        node = node.if_false
    bodies.append(node)
    if (not guards or any(column in g.free_columns() for g in guards)
            or any(b.free_columns() - {column} for b in bodies)):
        return None
    return guards, bodies
