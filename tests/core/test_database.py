"""Unit tests for the ProtocolDatabase layer."""

import sqlite3

import pytest

from repro import telemetry
from repro.core.database import (
    SNAPSHOT_SUPPORTED,
    DatabaseError,
    IndexSpec,
    ProtocolDatabase,
)


class TestDataTables:
    def test_create_insert_query(self, db):
        db.create_table("d", ("a", "b"))
        n = db.insert_rows("d", ("a", "b"), [{"a": "1", "b": None}])
        assert n == 1
        assert db.rows("d") == [{"a": "1", "b": None}]

    def test_create_table_from_rows(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}, {"a": "2"}])
        assert db.row_count("d") == 2

    def test_rows_order_by(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "2"}, {"a": "1"}])
        assert [r["a"] for r in db.rows("d", order_by=("a",))] == ["1", "2"]

    def test_table_exists(self, db):
        assert not db.table_exists("d")
        db.create_table("d", ("a",))
        assert db.table_exists("d")

    def test_drop_table(self, db):
        db.create_table("d", ("a",))
        db.drop_table("d")
        assert not db.table_exists("d")

    def test_table_columns(self, db):
        db.create_table("d", ("a", "b"))
        assert db.table_columns("d") == ["a", "b"]

    def test_create_table_as(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}, {"a": "2"}])
        db.create_table_as("e", "SELECT a FROM d WHERE a = '1'")
        assert db.row_count("e") == 1

    def test_scalar(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}])
        assert db.scalar("SELECT COUNT(*) FROM d") == 1

    def test_scalar_empty(self, db):
        db.create_table("d", ("a",))
        assert db.scalar("SELECT a FROM d") is None

    def test_bad_sql_raises_with_context(self, db):
        with pytest.raises(DatabaseError, match="SQL was"):
            db.execute("SELECT * FROM missing_table")


class TestSetOperations:
    def test_distinct_values(self, db):
        db.create_table_from_rows(
            "d", ("a",), [{"a": "1"}, {"a": "1"}, {"a": None}]
        )
        assert set(db.distinct_values("d", "a")) == {"1", None}


class TestIndexSpec:
    def test_derived_name_is_stable(self):
        spec = IndexSpec("dep", ("m", "s", "d"))
        assert spec.index_name == "idx_dep__m_s_d"

    def test_explicit_name_wins(self):
        assert IndexSpec("dep", ("m",), name="dep_in").index_name == "dep_in"

    def test_sql_is_idempotent_create(self):
        sql = IndexSpec("dep", ("m", "s")).sql()
        assert sql.startswith("CREATE INDEX IF NOT EXISTS")
        assert '"dep"' in sql and '"m", "s"' in sql

    def test_create_index_registers_in_sqlite_master(self, db):
        db.create_table("d", ("a", "b"))
        name = db.create_index("d", ("a", "b"))
        found = db.scalar(
            "SELECT COUNT(*) FROM sqlite_master WHERE type='index' AND name=?",
            (name,),
        )
        assert found == 1
        # IF NOT EXISTS: re-creating is a no-op, not an error.
        assert db.create_index("d", ("a", "b")) == name

    def test_create_index_without_columns_rejected(self, db):
        with pytest.raises(ValueError, match="columns"):
            db.create_index("d")



class TestMetadataCache:
    """The metadata probes are plain queries: every write, through this
    class or the raw connection, is visible to the next probe."""

    def test_insert_invalidates_row_count(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}])
        assert db.row_count("d") == 1
        db.insert_rows("d", ("a",), [{"a": "2"}])
        assert db.row_count("d") == 2

    def test_ddl_invalidates_schema_probes(self, db):
        assert not db.table_exists("d")
        db.create_table("d", ("a",))
        assert db.table_exists("d")
        assert db.table_columns("d") == ["a"]
        db.drop_table("d")
        assert not db.table_exists("d")

    def test_raw_connection_writes_are_seen_by_probes(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}])
        assert db.row_count("d") == 1
        db.connection.execute("INSERT INTO d VALUES ('2')")
        assert db.row_count("d") == 2


class TestChunkedInsert:
    def test_generator_larger_than_chunk_inserts_every_row(self, db):
        n = 1031
        db.create_table("d", ("a",))
        inserted = db.insert_rows("d", ("a",), ({"a": str(i)} for i in range(n)))
        assert inserted == n
        assert db.row_count("d") == n
        assert db.scalar("SELECT COUNT(DISTINCT a) FROM d") == n

    def test_one_shot_generator_is_one_statement(self, db):
        # insert_rows hands its generator straight to one executemany:
        # every row lands, and the tracer sees a single sql event.
        n = 1031
        db.create_table("d", ("a",))
        tracer = telemetry.Tracer(sinks=[telemetry.ListSink()],
                                  slow_sql_seconds=None)
        with telemetry.use_tracer(tracer):
            inserted = db.insert_rows(
                "d", ("a",), ({"a": str(i)} for i in range(n)))
        assert inserted == n
        assert db.row_count("d") == n
        (event,) = tracer.sinks[0].of_type("sql")
        assert event["statement"].startswith('INSERT INTO "d"')

    def test_empty_iterable(self, db):
        db.create_table("d", ("a",))
        assert db.insert_rows("d", ("a",), iter(())) == 0


@pytest.mark.skipif(not SNAPSHOT_SUPPORTED,
                    reason="sqlite3 serialize() needs Python 3.11+")
class TestSnapshot:
    def test_round_trip_preserves_rows(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}, {"a": "2"}])
        blob = db.snapshot()
        assert isinstance(blob, bytes) and blob
        conn = sqlite3.connect(":memory:")
        try:
            conn.deserialize(blob)
            assert conn.execute("SELECT COUNT(*) FROM d").fetchone()[0] == 2
        finally:
            conn.close()

    def test_private_copy_isolated_from_source(self, db):
        db.create_table_from_rows("d", ("a",), [{"a": "1"}])
        conn = sqlite3.connect(":memory:")
        try:
            conn.deserialize(db.snapshot())
            conn.execute("INSERT INTO d VALUES ('worker-only')")
            assert db.row_count("d") == 1
        finally:
            conn.close()


class TestLifecycle:
    def test_context_manager_closes(self):
        with ProtocolDatabase() as d:
            d.create_table("t", ("a",))
        with pytest.raises(Exception):
            d.execute("SELECT 1")

    def test_close_is_idempotent(self):
        d = ProtocolDatabase()
        d.close()
        d.close()  # must not raise ProgrammingError on the dead handle

    def test_use_after_close_is_a_database_error(self):
        d = ProtocolDatabase()
        d.create_table("t", ("a",))
        d.close()
        with pytest.raises(DatabaseError, match="closed"):
            d.execute("SELECT 1")
        with pytest.raises(DatabaseError, match="closed"):
            d.executemany("INSERT INTO t VALUES (?)", [("x",)])
        with pytest.raises(DatabaseError, match="closed"):
            d.snapshot()

    def test_close_commits_pending_writes(self, tmp_path):
        path = str(tmp_path / "pending.sqlite")
        d = ProtocolDatabase(path)
        d.create_table("t", ("a",))
        d.execute("INSERT INTO t VALUES ('x')")
        d.close()
        reopened = ProtocolDatabase(path)
        try:
            assert reopened.query("SELECT COUNT(*) AS n FROM t")[0]["n"] == 1
        finally:
            reopened.close()

    def test_failed_final_commit_surfaces_not_swallowed(self):
        class _FailingCommit:
            def __init__(self, inner):
                self._inner = inner

            def commit(self):
                raise sqlite3.OperationalError("disk I/O error")

            def __getattr__(self, name):
                return getattr(self._inner, name)

        d = ProtocolDatabase()
        d._conn = _FailingCommit(d._conn)
        with pytest.raises(DatabaseError, match="writes since the last "
                                                "commit are lost"):
            d.close()
        # The connection is closed even though the commit failed…
        with pytest.raises(DatabaseError, match="closed"):
            d.execute("SELECT 1")
        # …and a second close stays a no-op.
        d.close()


def snapshot_formats():
    """The snapshot formats this interpreter can produce."""
    formats = [pytest.param(True, id="portable")]
    if SNAPSHOT_SUPPORTED:
        formats.insert(0, pytest.param(False, id="raw"))
    return formats


class TestDeserializeRoundTrip:
    """Regression tests for ProtocolDatabase.snapshot()/deserialize():
    the clone-a-system path the deadlock workers and the mutation
    campaign both stand on must carry rows AND indexes."""

    def populate(self, db):
        db.create_table_from_rows(
            "d", ("a", "b"),
            [{"a": "1", "b": "x"}, {"a": "2", "b": "y"},
             {"a": "3", "b": None}])
        db.create_index(IndexSpec("d", ("a", "b"), name="d_ab"))
        db.create_index(IndexSpec("d", ("b",)))

    def index_names(self, db):
        return {r["name"] for r in db.query(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'index' AND tbl_name = 'd'")}

    @pytest.mark.parametrize("portable", snapshot_formats())
    def test_rows_survive(self, db, portable):
        self.populate(db)
        clone = ProtocolDatabase.deserialize(db.snapshot(portable=portable))
        try:
            assert clone.rows("d", order_by=("a",)) == \
                db.rows("d", order_by=("a",))
        finally:
            clone.close()

    @pytest.mark.parametrize("portable", snapshot_formats())
    def test_index_specs_survive(self, db, portable):
        self.populate(db)
        clone = ProtocolDatabase.deserialize(db.snapshot(portable=portable))
        try:
            assert self.index_names(clone) == self.index_names(db)
            # And the carried index is live, not just catalogued.
            plan = clone.query(
                "EXPLAIN QUERY PLAN SELECT * FROM d "
                "WHERE a = '1' AND b = 'x'")
            assert any("d_ab" in r["detail"] for r in plan)
        finally:
            clone.close()

    @pytest.mark.parametrize("portable", snapshot_formats())
    def test_clone_is_isolated(self, db, portable):
        self.populate(db)
        clone = ProtocolDatabase.deserialize(db.snapshot(portable=portable))
        try:
            clone.execute("DELETE FROM d")
            assert db.row_count("d") == 3
        finally:
            clone.close()

    def test_portable_snapshot_is_tagged(self, db):
        from repro.core.database import PORTABLE_SNAPSHOT_MAGIC

        self.populate(db)
        blob = db.snapshot(portable=True)
        assert blob.startswith(PORTABLE_SNAPSHOT_MAGIC)

    def test_garbage_blob_rejected(self):
        with pytest.raises((DatabaseError, sqlite3.Error)):
            ProtocolDatabase.deserialize(b"not a snapshot at all")


class TestFileDatabasePersistence:
    def test_close_commits_pending_writes(self, tmp_path):
        # Regression: sqlite3's implicit transactions roll back on close,
        # so `repro --save-db` used to write an empty database file.
        path = str(tmp_path / "saved.sqlite")
        db = ProtocolDatabase(path)
        db.create_table_from_rows("d", ("a",), [{"a": "1"}, {"a": "2"}])
        db.close()
        reopened = ProtocolDatabase(path)
        try:
            assert reopened.row_count("d") == 2
        finally:
            reopened.close()


class TestFileDatabaseResilience:
    def test_file_backed_connections_use_rollback_journal(self, tmp_path):
        # One process owns a --db/--save-db file at a time, so it keeps
        # sqlite's default rollback journal: no -wal/-shm sidecars.
        path = tmp_path / "x.sqlite"
        db = ProtocolDatabase(str(path))
        try:
            db.create_table_from_rows("d", ("a",), [{"a": "1"}])
            assert db.scalar("PRAGMA journal_mode") == "delete"
        finally:
            db.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.sqlite"]

    def test_in_memory_keeps_scratch_settings(self, db):
        # Journaling buys nothing for scratch databases.
        assert db.scalar("PRAGMA journal_mode") == "memory"

    def test_concurrent_reader_during_write_transaction(self, tmp_path):
        # A second reader of a --db file (a monitoring query) still sees
        # the last committed rows while a writer holds a transaction.
        path = str(tmp_path / "shared.sqlite")
        writer = ProtocolDatabase(path)
        writer.create_table_from_rows("d", ("a",), [{"a": "1"}])
        writer.connection.commit()
        reader = ProtocolDatabase(path)
        try:
            writer.execute("BEGIN")
            writer.execute("INSERT INTO d VALUES ('2')")
            assert reader.row_count("d") == 1
        finally:
            writer.close()
            reader.close()


class _FlakyConnection:
    """Delegates to a real connection, failing the first ``failures``
    execute() calls with a "database is locked" error."""

    def __init__(self, real, failures):
        self._real = real
        self.remaining = failures
        self.calls = 0

    def execute(self, sql, params=()):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise sqlite3.OperationalError("database is locked")
        return self._real.execute(sql, params)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestTransientRetry:
    """There is no retry, not even for a lock error: the connection is
    private, so a sqlite error is a real error on its first occurrence."""

    def test_locked_error_raises_on_first_occurrence(self, db, monkeypatch):
        flaky = _FlakyConnection(db.connection, failures=1)
        monkeypatch.setattr(db, "_conn", flaky)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            with pytest.raises(DatabaseError, match="database is locked"):
                db.execute("SELECT 1")
        assert flaky.calls == 1
        assert tracer.registry.counter("db.retries") == 0

    def test_fatal_error_fails_immediately(self, db, monkeypatch):
        flaky = _FlakyConnection(db.connection, failures=0)
        monkeypatch.setattr(db, "_conn", flaky)
        with pytest.raises(DatabaseError, match="syntax"):
            db.execute("SELEKT broken")
        assert flaky.calls == 1
