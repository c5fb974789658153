"""Parity and query-plan regression tests for the verification engine.

Two guarantees the performance work must never erode:

* **Parity** — the batched invariant sweep and the SQL deadlock engine
  are pure optimizations: their outputs are identical (content *and*
  order) to the one-SELECT-per-invariant checks of
  :mod:`tests.core.invariant_oracle` and the row-at-a-time extraction
  of :mod:`tests.core.deadlock_oracle`.

* **Plans** — the composition self-joins and the direct rows' V joins
  actually use the indexes the engine creates.  Without these EXPLAIN
  checks, a refactor could silently fall back to nested full scans and
  only show up as a slow CI run much later.
"""

import pytest

from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    CandidateScorer,
    ChannelAssignment,
    DeadlockAnalyzer,
    MissingAssignmentError,
    VCAssignment,
    _DEP_COLUMNS,
)
from repro.core.expr import C
from repro.core.invariants import Invariant, InvariantChecker
from repro.core.quad import ALL_PLACEMENTS, Placement
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable

from ..core.deadlock_oracle import RowAtATimeAnalyzer, analyze_system
from ..core.invariant_oracle import per_invariant


def result_key(r):
    """Everything a CheckResult reports except wall time."""
    return (r.name, r.passed, r.description,
            tuple((v.invariant, tuple(sorted(v.row.items())))
                  for v in r.details))


@pytest.fixture(scope="module")
def moesi():
    from repro.protocols.family import build_variant

    member = build_variant("moesi")
    yield member
    member.db.close()


@pytest.fixture(scope="module")
def analyzer(system):
    return DeadlockAnalyzer(
        system.db, system.deadlock_specs(), system.channel_assignments["v5"],
    )


class TestInvariantBatchParity:
    def test_full_suite_identical(self, system):
        checker = system.invariant_checker()
        batched = checker.check_all("b")
        assert [result_key(r) for r in batched.results] == \
               [result_key(r) for r in per_invariant(checker)]

    def test_violations_identical_including_order(self, db):
        schema = TableSchema("D", [
            Column("dirst", ("I", "SI", "MESI"), Role.INPUT, nullable=False),
            Column("dirpv", ("zero", "one", "gone"), Role.INPUT,
                   nullable=False),
        ])
        ControllerTable.from_rows(db, schema, [
            {"dirst": "MESI", "dirpv": "gone"},
            {"dirst": "I", "dirpv": "one"},
            {"dirst": "MESI", "dirpv": "zero"},
            {"dirst": "SI", "dirpv": "gone"},
        ])
        invs = [
            Invariant(name="pv", description="inv 1", table="D",
                      violation=(C("dirst").eq("MESI") & C("dirpv").ne("one"))
                      | (C("dirst").eq("I") & C("dirpv").ne("zero"))),
            Invariant(name="no-gone", description="inv 2", table="D",
                      violation=C("dirpv").eq("gone"),
                      report_columns=("dirpv",)),
            Invariant(name="raw", description="inv 3",
                      violation_sql="SELECT dirst FROM D WHERE dirst = 'SI'"),
        ]
        checker = InvariantChecker(db)
        checker.extend(invs)
        b = checker.check_all("b")
        assert [result_key(r) for r in b.results] == \
               [result_key(r) for r in per_invariant(checker)]
        # And the failing results really carry rows, in table order.
        assert [str(v) for v in b.results[0].details] == [
            "pv: dirst=MESI, dirpv=gone",
            "pv: dirst=I, dirpv=one",
            "pv: dirst=MESI, dirpv=zero",
        ]


#: the product engine and its row-at-a-time parity oracle.
ENGINES = {"python": RowAtATimeAnalyzer, "sql": DeadlockAnalyzer}


def rows_of(analysis):
    return [tuple(getattr(r, c) for c in _DEP_COLUMNS)
            for r in analysis.dependency_rows]


class TestDeadlockEngineParity:
    @pytest.mark.parametrize("assignment", ["v4", "v5", "v5d"])
    def test_sql_matches_python_oracle(self, system, assignment):
        sql = system.analyze_deadlocks(
            assignment, table_name=f"pdt_par_sql_{assignment}")
        py = analyze_system(
            system, assignment, table_name=f"pdt_par_py_{assignment}")
        assert rows_of(sql) == rows_of(py)
        assert sql.n_rows == py.n_rows
        assert sql.vcg == py.vcg
        assert sql.cycles() == py.cycles()

    @pytest.mark.parametrize("kwargs", [
        {"closure": True},
        {"ignore_messages": False},
        {"placements": (Placement.ALL_DISTINCT, Placement.HOME_REMOTE)},
    ], ids=["closure", "strict", "placements"])
    def test_variant_parity(self, system, moesi, kwargs):
        tag = "_".join(kwargs)
        for member in (system, moesi):
            sql = member.analyze_deadlocks(
                "v5", table_name=f"pdt_var_sql_{tag}", **kwargs)
            py = analyze_system(
                member, "v5", table_name=f"pdt_var_py_{tag}", **kwargs)
            assert rows_of(sql) == rows_of(py)
            assert sql.cycles() == py.cycles()

    def test_missing_assignment_error_parity(self, system):
        v5 = system.channel_assignments["v5"]
        broken = ChannelAssignment(
            "broken",
            [a for a in v5.assignments if a.message != "mread"],
            v5.dedicated,
        )
        errors = {}
        for engine, cls in ENGINES.items():
            analyzer = cls(system.db, system.deadlock_specs(), broken)
            with pytest.raises(MissingAssignmentError) as exc:
                analyzer.analyze(table_name=f"pdt_broken_{engine}")
            errors[engine] = str(exc.value)
        # The repair search's incremental scorer joins V with inner
        # joins; it must raise the same error, not drop the rows.
        scorer = CandidateScorer(system.db, system.deadlock_specs())
        try:
            with pytest.raises(MissingAssignmentError) as exc:
                scorer.cycles(broken)
        finally:
            scorer.close()
        errors["scorer"] = str(exc.value)
        assert errors["python"] == errors["sql"] == errors["scorer"]
        assert "mread" in errors["sql"]

    def test_failed_analysis_leaves_no_tables(self, system):
        """A V missing an entry fails every consumer without leaving a
        scratch (or dependency) table behind."""
        v5 = system.channel_assignments["v5"]
        broken = ChannelAssignment(
            "broken",
            [a for a in v5.assignments if a.message != "mread"],
            v5.dedicated,
        )

        def schema():
            return system.db.query_tuples(
                "SELECT type, name FROM sqlite_master ORDER BY type, name")

        before = schema()
        for engine, cls in ENGINES.items():
            with pytest.raises(MissingAssignmentError):
                cls(system.db, system.deadlock_specs(), broken,
                    ).analyze(table_name="pdt_b")
            assert schema() == before, engine
        scorer = CandidateScorer(system.db, system.deadlock_specs())
        with pytest.raises(MissingAssignmentError):
            scorer.cycles(broken)
        scorer.close()
        assert schema() == before

    def test_unknown_engine_rejected(self, analyzer):
        """The product has one engine: ``analyze`` takes no selector."""
        with pytest.raises(TypeError, match="engine"):
            analyzer.analyze(table_name="pdt_pandas", engine="python")


def plan_lines(db, sql):
    cur = db.execute("EXPLAIN QUERY PLAN " + sql)
    return [r["detail"] for r in cur.fetchall()]


class TestQueryPlans:
    """EXPLAIN QUERY PLAN regressions: the engine's hot joins must stay
    index-backed.  sqlite reports an index-free probe as ``SCAN <alias>``
    and an indexed one as ``SEARCH <alias> USING ... INDEX <name>``."""

    def test_composition_join_and_dedup_use_indexes(self, system, analyzer):
        analyzer.analyze(table_name="pdt_plan")
        stmts = analyzer._compose_round_stmts(
            "pdt_plan", ignore_messages=True, closure=False)
        *setup, insert, drop = stmts
        for stmt in setup:
            system.db.execute(stmt)
        try:
            lines = plan_lines(system.db, insert)
        finally:
            system.db.execute(drop)
        joined = "\n".join(lines)
        # The b-side probe of the self-join and the NOT EXISTS dedup probe
        # must both be index searches, never full scans.
        assert "USING INDEX pdt_plan__cand_in" in joined
        assert "USING INDEX pdt_plan_dedup" in joined
        assert not any(line.startswith("SCAN b") for line in lines)
        assert not any(line.startswith("SCAN c") for line in lines)

    def test_direct_extraction_probes_v_index(self, system, analyzer):
        v_table = "__v_plan"
        analyzer.channels.to_table(system.db, v_table)
        system.db.create_index(v_table, ("m", "s", "d", "v"),
                               name=v_table + "_msd")
        system.db.create_table("__plan", _DEP_COLUMNS)
        try:
            lines = plan_lines(system.db, analyzer._direct_rows_sql(
                v_table, ALL_PLACEMENTS, "__plan"))
        finally:
            system.db.drop_table("__plan")
            system.db.drop_table(v_table)
        # Both V probes (vi and vo) of every exact-row arm hit the
        # covering index; neither alias is ever scanned.
        arms = sum(len(spec.output_triples) for spec in analyzer.specs)
        for alias in ("vi", "vo"):
            probes = [l for l in lines if l.startswith(f"SEARCH {alias} ")]
            assert len(probes) == arms
            assert all("USING COVERING INDEX __v_plan_msd" in l
                       for l in probes)
            assert not any(l.startswith(f"SCAN {alias}") for l in lines)

    def test_invariant_batch_is_one_compound_statement(self, system):
        # The raw-SQL invariants batch as UNION ALL branches; the
        # expression invariants as one bit-mask query per table.
        checker = system.invariant_checker()
        batchable = [(idx, inv, checker._probe(inv)[0])
                     for idx, inv in enumerate(checker.invariants)
                     if inv.violation is None]
        assert len(batchable) >= 10
        width = max(len(cols) for _, _, cols in batchable)
        sql = checker._batch_sql(batchable, width)
        lines = plan_lines(system.db, sql)
        # One prepared compound statement covering every branch — this is
        # where the ~40x round-trip reduction comes from.
        assert any("COMPOUND" in l or "UNION ALL" in l for l in lines)
        statements = checker._plan(range(len(checker.invariants)), None)
        assert len(statements) == 1 + len(
            {inv.table for inv in checker.invariants if inv.table})


class TestMutatedTableParity:
    """Differential testing on *broken* protocols: the SQL engine and the
    Python oracle must agree not only on the clean ASURA tables but on
    mutated ones — otherwise a table bug could be reported differently
    depending on which engine ran, and the mutation campaign's layer
    attribution would be engine-dependent."""

    CONTROLLERS = ("D", "M", "C", "N", "RAC", "IO", "NI", "PE")
    MUTATION_CLASSES = ("drop-row", "duplicate-row", "flip-next-state",
                        "swap-output-message")

    def mutated_clone(self, system, controller, seed):
        from repro.core.database import ProtocolDatabase
        from repro.faults import MutationEngine
        from repro.protocols.asura.system import AsuraSystem

        classes = tuple(
            c for c in self.MUTATION_CLASSES
            if c in MutationEngine(system, tables=(controller,)).classes)
        engine = MutationEngine(system, seed=seed, tables=(controller,),
                                classes=classes)
        mutation = engine.sample(1)[0]
        clone = AsuraSystem.from_database(
            ProtocolDatabase.deserialize(system.db.snapshot()))
        mutation.apply_to(clone)
        return clone, mutation

    @pytest.mark.parametrize("controller",
                             ("D", "M", "C", "N", "RAC", "IO", "NI", "PE"))
    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_engines_agree_on_mutated_tables(self, system, controller, seed):
        clone, mutation = self.mutated_clone(system, controller, seed)
        try:
            results = {}
            for engine, cls in ENGINES.items():
                try:
                    analysis = cls(
                        clone.db, clone.deadlock_specs(),
                        clone.channel_assignments["v5d"],
                    ).analyze(table_name=f"mut_par_{engine}")
                    results[engine] = ("ok", rows_of(analysis),
                                       analysis.cycles())
                except MissingAssignmentError as exc:
                    results[engine] = ("missing-assignment", str(exc))
            assert results["sql"] == results["python"], \
                f"engines diverged on {mutation.description}"
        finally:
            clone.db.close()
