"""Tests for the checkpoint journal and the atomic write helpers."""

import json

import pytest

from repro.runtime import (
    JOURNAL_SCHEMA,
    CheckpointJournal,
    JournalError,
    atomic_write_json,
    atomic_write_text,
    check_header,
    load_journal,
)


class TestJournalRoundTrip:
    def test_header_and_units_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 7}) as j:
            j.record(0, {"detected_by": "invariants"})
            j.record(1, {"detected_by": None})
        header, units = load_journal(path)
        assert header == {"kind": "t", "seed": 7}
        assert units == {0: {"detected_by": "invariants"},
                         1: {"detected_by": None}}

    def test_records_are_one_json_line_each(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, {"x": 1})
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["schema"] == JOURNAL_SCHEMA
        assert json.loads(lines[1]) == {
            "type": "unit", "id": 0, "data": {"x": 1},
            "ts": json.loads(lines[1])["ts"]}

    def test_reopen_appends_and_keeps_old_units(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 1}) as j:
            j.record(0, "a")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 1}) as j:
            j.record(1, "b")
        header, units = load_journal(path)
        assert units == {0: "a", 1: "b"}
        # only one header record was written
        assert open(path).read().count('"header"') == 1

    def test_duplicate_unit_keeps_latest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "first")
            j.record(1, "other")
            j.record(0, "second")
        _, units = load_journal(path)
        assert units == {0: "second", 1: "other"}
        assert list(units) == [0, 1]  # first-appearance order


class TestJournalFailureModes:
    def test_torn_tail_line_is_discarded(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "done")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "id": 1, "da')  # SIGKILL mid-append
        header, units = load_journal(path)
        assert units == {0: "done"}

    def test_reopen_truncates_torn_tail_before_append(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "done")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "id": 1, "da')  # SIGKILL mid-append
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(1, "redone")
            j.record(2, "next")
        header, units = load_journal(path)
        assert units == {0: "done", 1: "redone", 2: "next"}
        # every line in the resumed journal is intact JSON
        for line in open(path).read().splitlines():
            json.loads(line)

    def test_reopen_twice_interrupted_journal(self, tmp_path):
        # A second resume of a twice-interrupted campaign must not see
        # the first resume's records as mid-file corruption.
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "a")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "id": 1')  # first kill
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(1, "b")
        with open(path, "a") as fh:
            fh.write('{"type": "un')  # second kill
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(2, "c")
        _, units = load_journal(path)
        assert units == {0: "a", 1: "b", 2: "c"}

    def test_unterminated_final_record_is_not_durable(self, tmp_path):
        # Valid JSON whose trailing newline never hit the disk is still
        # a torn write: the unit re-runs rather than risking a
        # concatenated line on resume.
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "done")
        with open(path, "a") as fh:
            fh.write(json.dumps({"type": "unit", "id": 1, "data": "x"}))
        _, units = load_journal(path)
        assert units == {0: "done"}
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(1, "redone")
        _, units = load_journal(path)
        assert units == {0: "done", 1: "redone"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "a")
        with open(path, "a") as fh:
            fh.write("NOT JSON\n")
            fh.write(json.dumps({"type": "unit", "id": 1, "data": "b"}) + "\n")
        with pytest.raises(JournalError, match="corrupt at line 3"):
            load_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"type": "unit", "id": 0,
                                    "data": "x"}) + "\n")
        with pytest.raises(JournalError, match="no header"):
            load_journal(str(path))

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"type": "header",
                                    "schema": "bogus/v9"}) + "\n")
        with pytest.raises(JournalError, match="schema"):
            load_journal(str(path))

    def test_header_mismatch_refuses_append(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.open(path, {"kind": "t", "seed": 1}).close()
        with pytest.raises(JournalError, match="different run"):
            CheckpointJournal.open(path, {"kind": "t", "seed": 2})

    def test_header_keys_compare_both_ways(self, tmp_path):
        # A key only one side stamps (an optional stage, a variant) is a
        # mismatch whichever side has it.
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.open(path, {"kind": "t"}).close()
        with pytest.raises(JournalError, match="variant=None there"):
            CheckpointJournal.open(path, {"kind": "t", "variant": "x"})
        with pytest.raises(JournalError, match="variant='x' there"):
            check_header(path, {"kind": "t", "variant": "x"}, {"kind": "t"})
        check_header(path, {"kind": "t"}, {"kind": "t"})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            load_journal(str(tmp_path / "nope.jsonl"))


class TestAtomicWrites:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"b": 2, "a": 1})
        assert json.load(open(path)) == {"a": 1, "b": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "hello")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_replaces_existing_content_completely(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "long original content" * 100)
        atomic_write_text(path, "short")
        assert open(path).read() == "short"

    def test_failed_write_preserves_previous_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"ok": True})

        class Unserializable:
            pass

        # default=str makes most objects serializable; force a failure
        # with a circular reference instead.
        circular = []
        circular.append(circular)
        with pytest.raises(ValueError):
            atomic_write_json(path, circular)
        assert json.load(open(path)) == {"ok": True}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

