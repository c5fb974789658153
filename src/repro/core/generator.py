"""Table generation by constraint solving (paper section 3).

Two strategies:

* :meth:`TableGenerator.generate_monolithic` — the naive form: one cross
  join over *all* column tables with the full constraint conjunction in the
  ``WHERE`` clause.  The database must enumerate the whole cross product,
  which is exponential in the number of columns; this is the configuration
  the paper reports as taking "around 6 hours" for the directory table.

* :meth:`TableGenerator.generate_incremental` — the paper's production
  flow: first solve only the input-column constraints to build the legal
  input combinations, then extend the table one output column (group) at a
  time.  Each step's cross product is |table so far| × |column domain|, so
  cost grows linearly with columns instead of exponentially ("Incremental
  table generation produces the final table within a few minutes").

A step whose constraint is a *guarded case* (``g0 ? b0 : … : default``,
guards over earlier columns, bodies over the new one) joins each row's
arm index to the values each arm allows; any other step filters the plain
cross join.  Both emit rows in working-table, then column-table, rowid
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..telemetry import get_tracer, span
from .constraints import ConstraintSet
from .database import ProtocolDatabase
from .expr import And, BoolExpr, TRUE, Ternary, TrueExpr
from .schema import TableSchema
from .sqlgen import quote_ident, to_sql
from .table import ControllerTable

__all__ = ["TableGenerator", "GenerationResult", "GenerationBudgetError"]


class GenerationBudgetError(RuntimeError):
    """The cross product the monolithic strategy would enumerate exceeds
    the configured budget; this is how benchmarks sweep column counts
    without hanging the suite."""


@dataclass
class StepTiming:
    """Timing/size record for one incremental step (or the single
    monolithic step)."""

    label: str
    columns: tuple[str, ...]
    cross_product_size: int
    result_rows: int
    seconds: float


@dataclass
class GenerationResult:
    table: ControllerTable
    strategy: str
    steps: list[StepTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def total_enumerated(self) -> int:
        """Total cross-product rows the database had to consider."""
        return sum(s.cross_product_size for s in self.steps)


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
        self._column_tables = db.create_column_tables(self.schema)

    # -- helpers -----------------------------------------------------------------
    def _cross_join(self, columns: Sequence[str]) -> str:
        parts = [quote_ident(self._column_tables[c]) for c in columns]
        return " CROSS JOIN ".join(parts)

    @staticmethod
    def _conj(exprs: Sequence[BoolExpr]) -> BoolExpr:
        parts = tuple(e for e in exprs if not isinstance(e, TrueExpr))
        if not parts:
            return TRUE
        if len(parts) == 1:
            return parts[0]
        return And(parts)

    def _step_sql(self, work: str, have: Sequence[str],
                  group: Sequence[str], expr: BoolExpr) -> str:
        """The ``SELECT`` extending ``work`` (columns ``have``) by ``group``."""
        new_cols = ", ".join(quote_ident(c) for c in group)
        col = group[0]
        # A group of several columns is a cycle of constraints reading
        # each other, so it is never a guarded case.
        arms = guarded_arms(expr, col) if len(group) == 1 else None
        if arms is None:
            prev_cols = ", ".join(quote_ident(c) for c in have)
            return (
                f"SELECT {prev_cols}, {new_cols} FROM {quote_ident(work)} "
                f"CROSS JOIN {self._cross_join(group)} WHERE {to_sql(expr)}"
            )
        guards, bodies = arms
        domain = quote_ident(self._column_tables[col])
        values = " UNION ALL ".join(
            f"SELECT {i} AS __arm, rowid AS __r, {new_cols} FROM {domain} "
            f"WHERE {to_sql(body)}" for i, body in enumerate(bodies))
        arm = "".join(f"WHEN {to_sql(g)} THEN {i} "
                      for i, g in enumerate(guards))
        out = ", ".join(f"w.{quote_ident(c)}" for c in have)
        # When every arm allows at most one value, each row of ``work``
        # extends to at most one row, so its rowid alone orders the result
        # (and the scan already yields that order: no sort).
        values_of = self.schema.column(col).domain
        single = all(sum(body.eval({col: v}) for v in values_of) <= 1
                     for body in bodies)
        order = "w.rowid" if single else "w.rowid, v.__r"
        return (
            f"SELECT {out}, v.{new_cols} FROM {quote_ident(work)} AS w "
            f"JOIN ({values}) AS v ON v.__arm = "
            f"(CASE {arm}ELSE {len(guards)} END) ORDER BY {order}"
        )

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
        cols = ", ".join(quote_ident(c) for c in self.schema.column_names)
        where = to_sql(self.constraints.conjunction())
        sql = f"SELECT {cols} FROM {self._cross_join(self.schema.column_names)} WHERE {where}"
        with span("generate.monolithic", table=self.table_name,
                  cross_product=size) as sp:
            self.db.create_table_as(self.table_name, sql)
        table = ControllerTable(self.db, self.schema, self.table_name)
        get_tracer().incr("generate.rows", table.row_count)
        step = StepTiming(
            label="monolithic",
            columns=self.schema.column_names,
            cross_product_size=size,
            result_rows=table.row_count,
            seconds=sp.seconds,
        )
        return GenerationResult(table=table, strategy="monolithic", steps=[step])

    # -- incremental --------------------------------------------------------------
    def generate_incremental(self) -> GenerationResult:
        """Inputs first, then output columns one (group) at a time."""
        with span("generate.table", table=self.table_name,
                  strategy="incremental"):
            return self._generate_incremental()

    def _generate_incremental(self) -> GenerationResult:
        steps: list[StepTiming] = []
        work = f"__gen_{self.table_name}"

        # Step 1: legal input combinations.
        input_names = self.schema.input_names
        where = to_sql(self.constraints.input_conjunction())
        cols = ", ".join(quote_ident(c) for c in input_names)
        sql = f"SELECT {cols} FROM {self._cross_join(input_names)} WHERE {where}"
        with span("generate.inputs", table=self.table_name) as sp:
            self.db.create_table_as(work, sql)
        steps.append(
            StepTiming(
                label="inputs",
                columns=input_names,
                cross_product_size=self.schema.cross_product_size(input_names),
                result_rows=self.db.row_count(work),
                seconds=sp.seconds,
            )
        )

        # Step 2..n: extend by each output group.
        have: list[str] = list(input_names)
        for group in self.constraints.generation_plan():
            exprs = [self.constraints.get(c).expr for c in group]
            nxt = f"{work}_{group[0]}"
            # The previous step already counted the working table.
            base_rows = steps[-1].result_rows
            sql = self._step_sql(work, have, group, self._conj(exprs))
            with span("generate.column", table=self.table_name,
                      columns=",".join(group)) as sp:
                self.db.create_table_as(nxt, sql)
            group_domain = 1
            for c in group:
                group_domain *= self.schema.column(c).domain_size
            steps.append(
                StepTiming(
                    label=f"+{','.join(group)}",
                    columns=tuple(group),
                    cross_product_size=base_rows * group_domain,
                    result_rows=self.db.row_count(nxt),
                    seconds=sp.seconds,
                )
            )
            self.db.drop_table(work)
            work = nxt
            have.extend(group)

        # Final: copy into the target name with schema column order.
        cols = ", ".join(quote_ident(c) for c in self.schema.column_names)
        self.db.create_table_as(
            self.table_name, f"SELECT {cols} FROM {quote_ident(work)}"
        )
        self.db.drop_table(work)
        table = ControllerTable(self.db, self.schema, self.table_name)
        get_tracer().incr("generate.rows", table.row_count)
        return GenerationResult(table=table, strategy="incremental", steps=steps)


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
