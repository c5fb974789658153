"""JSONL sink round-trip, the shared JSONL reader, run report assembly,
and the text summary."""

import json
import os

import pytest

from repro import telemetry
from repro.telemetry import (
    JsonlSink,
    Tracer,
    read_jsonl,
    scan_jsonl,
    use_tracer,
)


class TestJsonlRoundTrip:
    def test_events_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = Tracer(sinks=[JsonlSink(path)])
        with use_tracer(tracer):
            with telemetry.span("phase.one", table="D"):
                pass
            tracer.emit("custom", payload=123)
            tracer.record_sql("SELECT 1", rows=1, seconds=0.001)
        tracer.close()

        events = telemetry.read_jsonl(path)
        by_type = {e["type"] for e in events}
        assert by_type == {"span", "custom", "sql"}
        span_event = next(e for e in events if e["type"] == "span")
        assert span_event["name"] == "phase.one"
        assert span_event["table"] == "D"
        sql_event = next(e for e in events if e["type"] == "sql")
        assert sql_event["statement"] == "SELECT 1"
        assert sql_event["status"] == "ok"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "x.jsonl"))
        sink.close()
        sink.close()
        sink.write({"dropped": True})  # after close: silently ignored


HEADER = '{"type": "header", "kind": "k"}\n'
UNIT = '{"type": "unit", "id": 0, "data": "x", "ts": 1.5}\n'


class TestScanJsonl:
    """The one reader behind journal resume, ``repro watch``, the relay's
    spool merge and :func:`read_jsonl`: ``(content, records,
    durable_end)``, where ``content=None`` is a file that does not exist
    and ``records=ValueError`` is corruption before the tail."""

    @pytest.mark.parametrize("content, records, durable_end", [
        (HEADER + UNIT, [json.loads(HEADER), json.loads(UNIT)],
         len(HEADER + UNIT)),
        ("\n" + UNIT + "\n", [json.loads(UNIT)], len(UNIT) + 2),
        (None, [], None),
        (HEADER + '{"type": "unit", "id": 1, "da', [json.loads(HEADER)],
         len(HEADER)),
        (HEADER + '{"type": "unit", "id": 1, "da\n', [json.loads(HEADER)],
         len(HEADER)),
        (HEADER + UNIT.rstrip("\n"), [json.loads(HEADER)], len(HEADER)),
        ("not json\n" + UNIT, ValueError, None),
    ], ids=["complete-lines-keep-every-field", "blank-lines-skipped",
            "missing-file-is-no-events", "torn-tail-dropped",
            "torn-terminated-tail-dropped", "unterminated-tail-dropped",
            "mid-file-corruption-raises"])
    def test_durability_rule(self, tmp_path, content, records, durable_end):
        path = tmp_path / "f.jsonl"
        if content is None:
            assert read_jsonl(str(path)) == []
            with pytest.raises(OSError):
                scan_jsonl(str(path))
            return
        path.write_text(content, encoding="utf-8")
        if records is ValueError:
            for reader in (read_jsonl, scan_jsonl):
                with pytest.raises(ValueError, match="corrupt at line 1"):
                    reader(str(path))
            return
        assert read_jsonl(str(path)) == records
        assert scan_jsonl(str(path)) == (records, durable_end)


class TestRunReport:
    def test_report_shape_and_validity(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with telemetry.span("generate.table", table="D"):
                pass
            tracer.incr("invariant.checks", 3)
            tracer.incr("invariant.passed", 2)
            tracer.incr("invariant.failed", 1)
            tracer.incr("invariant.violations", 5)
            tracer.record_sql("SELECT * FROM D", rows=10, seconds=0.002)
        path = tmp_path / "report.json"
        report = telemetry.write_report(tracer, str(path),
                                        command="check", argv=["check"])
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(report, default=str))
        assert loaded["schema"] == "repro.telemetry.report/v1"
        assert loaded["command"] == "check"
        assert loaded["cpus"] == len(os.sched_getaffinity(0)) >= 1
        assert loaded["spans"]["generate.table"]["count"] == 1
        assert loaded["sql"]["queries"] == 1
        assert loaded["sql"]["rows_returned"] == 10
        assert loaded["sql"]["seconds"]["p50"] > 0
        assert loaded["invariants"] == {
            "checks": 3, "passed": 2, "failed": 1, "violations": 5,
        }

    def test_report_with_nothing_recorded(self):
        report = telemetry.build_report(Tracer())
        assert report["spans"] == {}
        assert report["sql"]["queries"] == 0
        assert report["sql"]["seconds"] is None


class TestTextSummary:
    def test_summary_mentions_spans_sql_and_counters(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with telemetry.span("sim.run"):
                pass
            tracer.incr("sim.messages_delivered", 8)
            tracer.record_sql("SELECT 1", rows=1, seconds=0.001)
        text = telemetry.render_summary(tracer)
        assert "telemetry summary" in text
        assert "sim.run" in text
        assert "1 queries" in text
        assert "sim.messages_delivered" in text

    def test_summary_on_empty_tracer(self):
        assert "nothing recorded" in telemetry.render_summary(Tracer())
