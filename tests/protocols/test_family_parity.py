"""Cross-family differential parity suite.

Every engine pair the repo keeps in lockstep on the MESI baseline must
stay in lockstep on *every* family member, clean or mutated:

* the SQL deadlock pipeline vs the Python row-at-a-time oracle;
* the batched invariant sweep vs the per-invariant checker;
* the compiled transition kernels vs the explorer on SQL lookups.

Plus the golden-matrix regressions: the MESI baseline's eight generated
tables are byte-identical to the committed fixture (the family refactor
is a pure generalization), and the MOESI/MESIF detection matrices are
gated against committed fixtures through the same prefix-stable
``compare_to_baseline`` CI uses.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import SNAPSHOT_SUPPORTED, ProtocolDatabase
from repro.core.deadlock import _DEP_COLUMNS
from repro.faults import MutationEngine, compare_to_baseline, run_campaign
from repro.faults.mutations import FAULT_CLASSES
from repro.protocols.family import (
    SPECS,
    VARIANT_META_TABLE,
    attach_variant,
    build_variant,
    read_variant_marker,
)

from ..core.deadlock_oracle import analyze_system
from ..core.invariant_oracle import per_invariant
from ..explore.sql_oracle import sql_lookups

FIXTURES = Path(__file__).parent / "fixtures"
VARIANTS = tuple(SPECS)
ASSIGNMENTS = ("v4", "v5", "v5d")

_relaxed = settings(max_examples=8, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def family():
    """Lazy per-module cache of generated members: each variant is built
    at most once and shared read-only by the parity tests."""
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = build_variant(key)
        return cache[key]

    yield get
    for system in cache.values():
        system.db.close()


def table_digests(system):
    """Deterministic content digest of each generated controller table
    (the format of ``fixtures/golden_mesi_tables.json``)."""
    out = {}
    for name, table in system.tables.items():
        cols = list(table.schema.column_names)
        rows = system.db.query(f'SELECT * FROM "{name}" ORDER BY rowid')
        payload = json.dumps([[r[c] for c in cols] for r in rows],
                             sort_keys=True, separators=(",", ":"))
        out[name] = {
            "columns": cols,
            "rows": len(rows),
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
    return out


class TestGoldenMesi:
    """The family generator must reproduce the historical MESI tables
    bit for bit: same columns, same rows, same content digests."""

    def test_mesi_tables_byte_identical_to_golden(self, family):
        with open(FIXTURES / "golden_mesi_tables.json",
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        assert table_digests(family("mesi")) == golden

    def test_mesi_database_carries_no_variant_marker(self, family):
        db = family("mesi").db
        assert not db.table_exists(VARIANT_META_TABLE)
        assert read_variant_marker(db) == "mesi"

    def test_non_mesi_databases_are_marked(self, family):
        for key in ("moesi", "mesif"):
            assert read_variant_marker(family(key).db) == key

    def test_mesif_directory_identical_to_mesi(self, family):
        # MESIF only changes which *cache* state forwards (F is clean);
        # the directory's view of the protocol is untouched, so D must
        # be byte-identical while the cache/node controllers differ.
        mesi = table_digests(family("mesi"))
        mesif = table_digests(family("mesif"))
        assert mesif["D"] == mesi["D"]
        assert mesif["C"] != mesi["C"]
        assert mesif["N"] != mesi["N"]


def result_key(r):
    """Everything a CheckResult reports except wall time."""
    return (r.name, r.passed, r.description,
            tuple((v.invariant, tuple(sorted(v.row.items())))
                  for v in r.details))


class TestInvariantBatchParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batched_matches_unbatched(self, family, variant):
        system = family(variant)
        checker = system.invariant_checker()
        batched = checker.check_all("b")
        unbatched = per_invariant(checker)
        assert [result_key(r) for r in batched.results] == \
               [result_key(r) for r in unbatched]


def rows_of(analysis):
    return [tuple(getattr(r, c) for c in _DEP_COLUMNS)
            for r in analysis.dependency_rows]


_table_counter = itertools.count()


class TestDeadlockEngineParity:
    @given(variant=st.sampled_from(VARIANTS),
           assignment=st.sampled_from(ASSIGNMENTS))
    @_relaxed
    def test_sql_matches_python_oracle(self, family, variant, assignment):
        system = family(variant)
        tag = next(_table_counter)
        sql = system.analyze_deadlocks(
            assignment, table_name=f"fam_par_sql_{tag}")
        py = analyze_system(system, assignment,
                            table_name=f"fam_par_py_{tag}")
        assert rows_of(sql) == rows_of(py)
        assert sql.cycles() == py.cycles()
        assert sql.is_deadlock_free() == py.is_deadlock_free()

    def test_cross_family_deadlock_differential(self, family):
        """The family's differential signature: every member's v4 is
        cyclic and v5d is free; v5 is free only for mesi-vc6, whose
        sixth channel splits the snoop replies out of the v5 cycle."""
        for variant in VARIANTS:
            system = family(variant)
            free = {a: system.analyze_deadlocks(
                        a, table_name=f"fam_diff_{variant}_{a}"
                    ).is_deadlock_free()
                    for a in ASSIGNMENTS}
            assert free["v4"] is False, variant
            assert free["v5d"] is True, variant
            assert free["v5"] is (variant == "mesi-vc6"), variant


@pytest.mark.skipif(not SNAPSHOT_SUPPORTED,
                    reason="sqlite3 serialize() needs Python 3.11+")
class TestExplorerKernelParity:
    """Compiled kernels and the SQL-lookup oracle must agree on broken
    protocols too — otherwise the mutation campaign's ground-truth
    oracle would depend on which backend ran."""

    MUTATION_CLASSES = ("flip-next-state", "drop-row", "duplicate-row",
                        "swap-output-message")

    def _mutated_clone(self, system, seed):
        engine = MutationEngine(system, seed=seed,
                                classes=self.MUTATION_CLASSES)
        mutation = engine.sample(1)[0]
        # The snapshot carries the variant marker, so attach recovers
        # the right family member without being told.
        clone = attach_variant(
            ProtocolDatabase.deserialize(system.db.snapshot()))
        mutation.apply_to(clone)
        return clone, mutation

    def _explore(self, clone):
        from repro.explore import (ExplorationError, ExploreConfig,
                                   ReachabilityExplorer)

        config = ExploreConfig(nodes=2, depth=4, assignment="v5d")
        explorer = ReachabilityExplorer(clone, config)
        try:
            result = explorer.run()
        except ExplorationError as exc:
            return ("error", str(exc))
        finally:
            explorer.close()
        return ("ok", result.to_dict())

    @given(variant=st.sampled_from(VARIANTS), seed=st.integers(0, 30))
    @_relaxed
    def test_compiled_matches_interpreted_on_mutants(self, family,
                                                     variant, seed):
        clone, mutation = self._mutated_clone(family(variant), seed)
        try:
            compiled = self._explore(clone)
            with sql_lookups():
                interpreted = self._explore(clone)
        finally:
            clone.db.close()
        assert compiled == interpreted, \
            f"kernels diverged on {variant}: {mutation.description}"


class TestFaultClassSmoke:
    """Satellite audit of the fault classes' family assumptions: every
    class must sample and apply cleanly on every member — in particular
    ``reassign-channel`` must draw from the member's *own* V (MOESI's
    ``owb`` rows, mesi-vc6's sixth channel) and ``corrupt-pv-update``
    must target presence-vector columns that exist in its directory."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_fault_class_well_formed(self, family, variant):
        system = family(variant)
        v5d = system.channel_assignments["v5d"]
        v_keys = {(a.message, a.src, a.dst) for a in v5d.assignments}
        for cls in FAULT_CLASSES:
            engine = MutationEngine(system, seed=7, classes=(cls,))
            mutation = engine.sample(1)[0]
            assert mutation.fault_class == cls
            clone = attach_variant(
                ProtocolDatabase.deserialize(system.db.snapshot()))
            try:
                mutation.apply_to(clone)
                if cls == "reassign-channel":
                    moved = {key for key, _ in mutation.channel_moves}
                    assert moved <= v_keys
                if cls == "corrupt-pv-update":
                    table = mutation.target
                    col = mutation.description.split(".")[1].split(" ")[0]
                    assert col in system.tables[table].schema.column_names
            finally:
                clone.db.close()

    def test_moesi_owned_writeback_is_reassignable(self, family):
        v5d = family("moesi").channel_assignments["v5d"]
        assert any(a.message == "owb" for a in v5d.assignments)


class TestDetectionMatrixFixtures:
    """MOESI/MESIF detection matrices are gated against committed
    fixtures exactly the way CI gates the MESI baseline: a prefix-sized
    rerun must catch every mutant at a layer no later than recorded."""

    @pytest.mark.parametrize("variant", ("moesi", "mesif"))
    def test_no_regressions_vs_fixture(self, family, variant):
        with open(FIXTURES / f"matrix_{variant}.json",
                  encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert baseline.get("variant") == variant
        result = run_campaign(system=family(variant), seed=0, count=4)
        assert compare_to_baseline(result.to_dict(), baseline) == []


class TestFamilyRepairSmoke:
    """The repair loop must work for *every* family member against its
    own generated tables and deadlock specs — this is the regression
    test for the bug where ``repro repair --variant`` silently repaired
    family members against the MESI baseline's specs."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_member_v5_repairs_and_reverifies(self, family, variant):
        from repro.core.repair import DeadlockRepairer

        system = family(variant)
        repairer = DeadlockRepairer.for_system(system, "v5")
        # ``for_system`` must bind the member's own artifacts, not the
        # MESI baseline's: same db handle, specs drawn from its tables.
        assert repairer.db is system.db
        assert repairer.base is system.channel_assignments["v5"]
        if variant == "moesi":
            assert any(a.message == "owb"
                       for a in repairer.base.assignments)
        result = repairer.search(max_rounds=4)
        assert result.success
        # mesi-vc6's extra channels make v5 free from the start; every
        # other member needs (and gets) at least one applied fix.
        if variant != "mesi-vc6":
            assert result.initial_cycles and result.applied
        verdicts = repairer.reverify(result)
        # Invariant re-checks ran against the member system itself.
        assert all(v["invariants"] is True for v in verdicts)
        assert all(v["ok"] for v in verdicts)
