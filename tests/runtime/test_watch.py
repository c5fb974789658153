"""The live run watcher: journal tailing, snapshots, rendering."""

import io
import json

import pytest

from repro.runtime import load_journal
from repro.runtime.journal import scan_journal
from repro.runtime.watch import (
    render_snapshot,
    run_watch,
    watch_once,
)

HEADER = {"type": "header", "schema": "repro.runtime.journal/v1",
          "kind": "mutation-campaign", "seed": 0, "assignment": "v5d"}


def _campaign_journal(path, n=4, t0=1000.0, tail=""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(HEADER) + "\n")
        for i in range(n):
            layer = "invariants" if i % 2 == 0 else None
            data = {"mutant_id": i, "fault_class": "row-del",
                    "detected_by": layer, "detail": ""}
            fh.write(json.dumps({"type": "unit", "id": i, "data": data,
                                 "ts": t0 + i * 10}) + "\n")
        fh.write(tail)


def _events_file(path, total=10):
    events = [
        {"type": "campaign.started", "ts": 999.0, "run_id": "R",
         "total": total},
        {"type": "unit.started", "ts": 1000.0, "unit_id": 5,
         "worker_id": "inline"},
        {"type": "unit.started", "ts": 1000.5, "unit_id": 6,
         "worker_id": "inline"},
        {"type": "unit.finished", "ts": 1001.0, "unit_id": 5,
         "worker_id": "inline", "outcome": "ok"},
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


class TestJournalTail:
    """watch's view of a journal, from the journal scanner; the line-level
    durability rule itself is pinned in ``test_sinks.py::TestScanJsonl``."""

    def test_reads_header_and_records(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _campaign_journal(path, n=3)
        header, records, _ = scan_journal(path)
        assert header["kind"] == "mutation-campaign"
        assert list(records) == [0, 1, 2]
        assert all("ts" in r for r in records.values())  # for throughput

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _campaign_journal(path, n=2, tail='{"type": "unit", "id": 99')
        _, records, _ = scan_journal(path)
        assert list(records) == [0, 1]

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(OSError):
            watch_once(str(tmp_path / "nope.jsonl"))


class TestWatchOnce:
    def test_campaign_matrix_and_throughput(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _campaign_journal(path, n=4, t0=1000.0)
        snap = watch_once(path, now=1040.0)
        assert snap["kind"] == "mutation-campaign"
        assert snap["done"] == 4
        assert snap["matrix"]["invariants"] == 2
        assert snap["matrix"]["escaped"] == 2
        assert "degraded" not in snap
        # 3 intervals over 30 seconds of record timestamps.
        assert snap["rate_per_second"] == pytest.approx(0.1)
        assert snap["last_record_age_seconds"] == pytest.approx(10.0)

    def test_events_supply_total_and_in_flight(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        events = str(tmp_path / "e.jsonl")
        _campaign_journal(journal, n=4, t0=1000.0)
        _events_file(events, total=10)
        snap = watch_once(journal, events_path=events, now=1040.0)
        assert snap["total"] == 10
        assert snap["eta_seconds"] == pytest.approx(60.0)  # 6 left / 0.1
        assert [u["unit_id"] for u in snap["in_flight"]] == [6]
        assert "workers_seen" not in snap

    def test_explore_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "header",
                                 "schema": "repro.runtime.journal/v1",
                                 "kind": "explore", "nodes": 2}) + "\n")
            for depth, new in enumerate((1, 5, 12)):
                stats = {"depth": depth, "frontier": new, "new_states": new,
                         "transitions": new * 2, "dedup_hits": 0,
                         "violations": 0, "deadlocks": 0}
                fh.write(json.dumps(
                    {"type": "unit", "id": depth,
                     "data": {"stats": stats}, "ts": 1000.0 + depth}) + "\n")
        snap = watch_once(path, now=1010.0)
        assert snap["kind"] == "explore"
        assert snap["depth"] == 2
        assert snap["states"] == 18
        assert snap["transitions"] == 36

    @pytest.mark.parametrize("kind", ["mystery", "service-queue"])
    def test_unknown_kind_rejected(self, tmp_path, kind):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "header",
                                 "schema": "repro.runtime.journal/v1",
                                 "kind": kind}) + "\n")
        with pytest.raises(ValueError, match=kind):
            watch_once(path)

    def test_duplicate_ids_keep_latest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(HEADER) + "\n")
            for layer in (None, "invariants"):  # a resume re-records 0
                fh.write(json.dumps(
                    {"type": "unit", "id": 0,
                     "data": {"mutant_id": 0, "fault_class": "x",
                              "detected_by": layer},
                     "ts": 1000.0}) + "\n")
        snap = watch_once(path, now=1001.0)
        assert snap["done"] == 1
        assert snap["matrix"]["invariants"] == 1


    @pytest.mark.parametrize("tail", [
        '{"type": "unit", "id": 99',  # torn mid-append
        json.dumps({"type": "unit", "id": 99, "ts": 1050.0,
                    "data": {"detected_by": "deadlock"}}),  # no newline
    ], ids=["torn", "unterminated"])
    def test_counts_only_what_a_resume_restores(self, tmp_path, tail):
        path = str(tmp_path / "j.jsonl")
        _campaign_journal(path, n=1, t0=1000.0, tail=tail)
        _, units = load_journal(path)
        snap = watch_once(path, now=1060.0)
        assert snap["done"] == len(units) == 1
        assert sum(snap["matrix"].values()) == 1
        assert snap["matrix"]["deadlock"] == 0


class TestRender:
    def test_campaign_block(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        events = str(tmp_path / "e.jsonl")
        _campaign_journal(journal, n=4)
        _events_file(events, total=10)
        text = render_snapshot(watch_once(journal, events_path=events,
                                          now=1040.0))
        assert "4/10 mutants done" in text
        assert "invariants=2" in text
        assert "ETA" in text
        assert "in flight: 6@inline" in text
        assert "workers seen" not in text


class TestRunWatch:
    def test_once_json_mode(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        _campaign_journal(journal, n=2)
        out = io.StringIO()
        assert run_watch(journal, once=True, as_json=True, stream=out) == 0
        snap = json.loads(out.getvalue())
        assert snap["done"] == 2

    def test_once_missing_journal_fails_loudly(self, tmp_path):
        assert run_watch(str(tmp_path / "nope.jsonl"), once=True) == 2

    @pytest.mark.parametrize("once", [True, False])
    def test_corrupt_journal_is_a_one_line_error(self, tmp_path, capsys,
                                                 once):
        path = tmp_path / "j.jsonl"
        _campaign_journal(str(path), n=2)
        lines = path.read_text(encoding="utf-8").splitlines(True)
        lines.insert(1, "NOT JSON\n")
        path.write_text("".join(lines), encoding="utf-8")
        assert run_watch(str(path), once=once, interval=0) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: journal ")
        assert "corrupt at line 2" in err
        assert len(err.splitlines()) == 1

    def test_cli_wiring(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "j.jsonl")
        _campaign_journal(journal, n=2)
        assert main(["watch", journal, "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["kind"] == "mutation-campaign"
