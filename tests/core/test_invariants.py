"""Unit tests for the invariant checker."""

import pytest

from repro.core.expr import C
from repro.core.invariants import MAX_VIOLATIONS, Invariant, InvariantChecker
from repro.core.database import DatabaseError
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable, write_clean_copy

from .invariant_oracle import check, query


@pytest.fixture()
def table(db):
    schema = TableSchema("D", [
        Column("dirst", ("I", "SI", "MESI"), Role.INPUT, nullable=False),
        Column("dirpv", ("zero", "one", "gone"), Role.INPUT, nullable=False),
    ])
    return ControllerTable.from_rows(db, schema, [
        {"dirst": "I", "dirpv": "zero"},
        {"dirst": "SI", "dirpv": "gone"},
        {"dirst": "MESI", "dirpv": "one"},
    ])


def sweep(db, invariant):
    """``invariant``'s result from the sweep of a suite holding it alone."""
    checker = InvariantChecker(db)
    checker.add(invariant)
    (result,) = checker.check_all().results
    return result


def pv_invariant():
    return Invariant(
        name="pv",
        description="paper invariant 1",
        table="D",
        violation=(
            (C("dirst").eq("MESI") & C("dirpv").ne("one"))
            | (C("dirst").eq("I") & C("dirpv").ne("zero"))
        ),
    )


class TestInvariantDefinition:
    def test_needs_exactly_one_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            Invariant(name="x", description="", table="D")

    def test_both_forms_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            Invariant(name="x", description="", table="D",
                      violation=C("a").eq(None), violation_sql="SELECT 1")

    def test_expression_form_needs_table(self):
        with pytest.raises(ValueError, match="need a table"):
            Invariant(name="x", description="", violation=C("a").is_null())

    def test_query_renders_select(self):
        q = query(pv_invariant())
        assert q.startswith("SELECT * FROM \"D\" WHERE")

    def test_report_columns_projected(self):
        inv = Invariant(name="x", description="", table="D",
                        violation=C("dirst").eq("I"),
                        report_columns=("dirst",))
        assert 'SELECT "dirst" FROM' in query(inv)


class TestChecking:
    def test_holding_invariant_passes(self, db, table):
        result = sweep(db, pv_invariant())
        assert result.passed and not result.details

    def test_violation_reported_with_rows(self, db, table):
        db.insert_rows("D", ("dirst", "dirpv"),
                       [{"dirst": "MESI", "dirpv": "gone"}])
        result = sweep(db, pv_invariant())
        assert not result.passed
        assert result.details[0].row == {"dirst": "MESI", "dirpv": "gone"}

    def test_violation_cap(self, db, table):
        db.insert_rows("D", ("dirst", "dirpv"),
                       [{"dirst": "I", "dirpv": "one"}] * (MAX_VIOLATIONS + 10))
        result = sweep(db, pv_invariant())
        assert len(result.details) == MAX_VIOLATIONS

    def test_raw_sql_invariant(self, db, table):
        inv = Invariant(
            name="raw", description="",
            violation_sql="SELECT dirst FROM D WHERE dirpv = 'gone' "
                          "AND dirst != 'SI'",
        )
        assert sweep(db, inv).passed

    def test_check_all_report(self, db, table):
        checker = InvariantChecker(db)
        checker.extend([pv_invariant()])
        report = checker.check_all()
        assert report.passed and len(report.results) == 1

    def test_suite_is_read_only(self, db, table):
        """An assigned suite would run the old suite's compiled sweep
        under the new names; add/extend are the only mutators."""
        checker = InvariantChecker(db)
        checker.add(pv_invariant())
        assert checker.check_all().passed  # compiles the sweep
        gone = Invariant(name="no-gone", description="", table="D",
                         violation=C("dirpv").eq("gone"))
        with pytest.raises(AttributeError):
            checker.invariants = [gone]
        assert [inv.name for inv in checker.invariants] == ["pv"]
        checker.extend([gone])
        assert [(r.name, r.passed) for r in checker.check_all().results] \
            == [("pv", True), ("no-gone", False)]

    def test_tables_scope_check_all(self, db, table):
        # A scoped sweep judges the rows edited since the clean copies.
        db.create_table_from_rows("E", ("x",), [{"x": "I"}])
        write_clean_copy(db, "D")
        write_clean_copy(db, "E")
        db.execute("INSERT INTO E VALUES (NULL)")
        checker = InvariantChecker(db)
        checker.add(pv_invariant())
        checker.add(Invariant(name="other", description="", table="E",
                              violation=C("x").is_null()))
        # A raw-SQL invariant joining two tables reads both of them.
        checker.add(Invariant(
            name="joined", description="",
            violation_sql="SELECT dirst FROM D "
                          "WHERE dirst NOT IN (SELECT x FROM E)"))
        def ran(tables):
            return [r.name for r in checker.check_all(tables=tables).results]

        assert ran(["D"]) == ["pv", "joined"]
        assert ran(["E"]) == ["other", "joined"]
        assert ran(["E", "D"]) == ran(None) == ["pv", "other", "joined"]
        assert ran(["F"]) == ran([]) == []
        full = checker.check_all()
        scoped = checker.check_all(tables=["E"])
        assert ([(r.name, r.details) for r in scoped.results]
                == [(r.name, r.details) for r in full.results[1:]])
        # Every scoped sweep reports what the per-invariant path does.
        oracle = {inv.name: check(db, inv) for inv in checker.invariants}
        for tables in (["D"], ["E"], ["E", "D"], None):
            for r in checker.check_all(tables=tables).results:
                assert ((r.passed, r.details)
                        == (oracle[r.name].passed, oracle[r.name].details))

    def test_scoped_sweep_without_clean_copy_raises(self, db, table):
        checker = InvariantChecker(db)
        checker.add(pv_invariant())
        assert checker.check_all().passed
        # No silent fallback to judging every row.
        with pytest.raises(DatabaseError, match="no such table: __clean_D"):
            checker.check_all(tables=["D"])
        with pytest.raises(DatabaseError, match="no such table: __clean_D"):
            table.overlapping_pairs(changed=True)
        write_clean_copy(db, "D")
        assert checker.check_all(tables=["D"]).passed
        assert table.overlapping_pairs(changed=True) == (0, [])

    def test_query_that_does_not_nest_is_refused(self, db, table):
        """A sweep runs a raw-SQL query only as a subquery: one that runs
        alone but cannot nest is refused by name on the first sweep, not
        judged some other way."""
        bad = Invariant(name="trailing-semicolon", description="",
                        violation_sql="SELECT dirst FROM D WHERE 0;")
        assert check(db, bad).passed  # runs on its own
        checker = InvariantChecker(db)
        checker.extend([pv_invariant(), bad])
        for tables in (None, ["D"]):
            with pytest.raises(DatabaseError, match="'trailing-semicolon'"):
                checker.check_all(tables=tables)
