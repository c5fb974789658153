"""Experiment T1 / F3 / A2 — table generation (paper section 3).

Claims reproduced:

* F3: the Figure 3 rows (readex transaction) regenerate from constraints.
* T1: "Incremental table generation produces the final table within a few
  minutes ... whereas it takes around 6 hours to solve the conjunction of
  all the column constraints" — the monolithic cross-product solve grows
  exponentially with column count while the incremental strategy stays
  flat.  SQLite tests each conjunct at the loop where its last column
  binds, so the monolithic join (loops in schema order) only enumerates
  what precedes a conjunct's last column.  The synthetic schemas make
  every output read the *last* output, so the monolithic solve enumerates
  the full cross product while the generation plan binds that output
  first.
* A2: NULL dontcare values keep the node-controller table sparse.

Every benchmark runs ``benchmark.pedantic`` with fixed rounds, so the
query totals in ``BENCH_generation.json`` are the same on every run.
"""

import pytest

from repro.core.constraints import ConstraintSet
from repro.core.database import ProtocolDatabase
from repro.core.expr import C, TRUE, when
from repro.core.generator import TableGenerator
from repro.core.schema import Column, Role, TableSchema
from repro.protocols.family import MESI
from repro.protocols.family.directory import directory_constraints

#: fixed pedantic rounds — keep deterministic for BENCH_generation.json.
ROUNDS = 5
ROUNDS_MICRO = 20


def synthetic_constraints(n_outputs: int, domain: int = 6) -> ConstraintSet:
    """A D-shaped synthetic spec: 4 inputs, ``n_outputs`` outputs, each
    output pinned by a ternary over an input and the last output (the
    last one over two inputs), as in section 3."""
    values = tuple(f"v{i}" for i in range(domain))
    cols = [
        Column(f"i{k}", values, Role.INPUT, nullable=False) for k in range(4)
    ] + [
        Column(f"o{k}", values, Role.OUTPUT) for k in range(n_outputs)
    ]
    cs = ConstraintSet(TableSchema(f"syn{n_outputs}", cols))
    cs.set("i0", C("i0").ne(values[-1]))
    last = n_outputs - 1
    for k in range(n_outputs):
        late = C(f"o{last}") if k < last else C(f"i{(k + 1) % 4}")
        cs.set(f"o{k}", when(
            C(f"i{k % 4}").eq(values[0]),
            C(f"o{k}").eq(values[1]),
            when(late.eq(values[2]),
                 C(f"o{k}").eq(values[3]),
                 C(f"o{k}").is_null()),
        ))
    return cs


SWEEP = [1, 2, 3, 4]


@pytest.mark.parametrize("n_outputs", SWEEP)
def test_incremental_generation_scales_linearly(benchmark, n_outputs):
    def run():
        with ProtocolDatabase() as db:
            result = TableGenerator(
                db, synthetic_constraints(n_outputs)
            ).generate_incremental()
            return result.table.row_count
    rows = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert rows == 1080


@pytest.mark.parametrize("n_outputs", SWEEP)
def test_monolithic_generation_explodes(benchmark, n_outputs):
    """Cross product is 6^4 * 7^n (outputs are nullable); every output's
    conjunct waits for the last output's loop, so the database visits
    1,080 * 7^n combinations, ~2.6M at n=4.  The wall-clock ratio against
    the incremental run above is the paper's minutes-vs-6-hours shape."""
    def run():
        with ProtocolDatabase() as db:
            result = TableGenerator(
                db, synthetic_constraints(n_outputs)
            ).generate_monolithic(budget=None)
            return result.table.row_count
    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    assert rows == 1080


def test_full_directory_table_generation(benchmark, system):
    """F3/T2: the production path — D's 31 columns regenerate in well
    under the paper's 'few minutes' envelope."""
    def run():
        with ProtocolDatabase() as db:
            result = TableGenerator(
                db, directory_constraints(MESI)
            ).generate_incremental()
            return (result.table.row_count,
                    result.table.schema.cross_product_size())
    rows, mono_size = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert rows == system.tables["D"].row_count
    # The budget guard refuses a monolithic solve of this cross product
    # (~9e16 rows).  Unguarded, SQLite solves D in schema order in tens of
    # milliseconds: its conjuncts read columns that bind early, so the
    # blow-up needs conjuncts that read a late column, as swept above.
    assert mono_size > 10**15


def test_figure3_rows_regenerate(benchmark, system):
    """F3: the readex rows of Figure 3 are present after regeneration."""
    def run():
        with ProtocolDatabase() as db:
            table = TableGenerator(
                db, directory_constraints(MESI)
            ).generate_incremental().table
            return table.match_rows({"inmsg": "readex", "bdirlookup": "miss"})
    rows = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    by_state = {(r["dirst"], r["dirpv"], r["reqinpv"]): r for r in rows}
    si = by_state[("SI", "gone", "no")]
    assert si["remmsg"] == "sinv" and si["memmsg"] == "mread"
    assert si["nxtbdirst"] == "Busy-xs-sd"


def test_null_dontcare_compression(benchmark, system):
    """A2: without NULL dontcares the node controller would need one row
    per concrete (pend, linest) combination; the table's wildcard rows
    cover them all."""
    table = system.tables["N"]

    def expand():
        concrete = 0
        for row in table.rows():
            pend_opts = 1 if row["pend"] is not None else len(
                table.schema.column("pend").values)
            line_opts = 1 if row["linest"] is not None else len(
                table.schema.column("linest").values)
            concrete += pend_opts * line_opts
        return concrete

    concrete_rows = benchmark.pedantic(expand, iterations=1,
                                       rounds=ROUNDS_MICRO)
    assert concrete_rows > 1.5 * table.row_count
