"""The cross-process telemetry relay: spools, merge, attribution.

Worker unit functions are module-level so they pickle under any
multiprocessing start method.
"""

import json
import os
import signal

from repro.runtime import run_units
from repro.telemetry import (
    JsonlSink,
    ListSink,
    RelayTracer,
    TraceContext,
    Tracer,
    merge_spool,
    set_tracer,
    use_context,
    use_tracer,
)
from repro.telemetry.tracer import NULL_TRACER


# -- worker unit functions (module-level for pickling) -------------------------
def emit_telemetry(payload):
    from repro.telemetry import get_tracer

    tracer = get_tracer()
    with tracer.span("unit.work", n=payload):
        tracer.incr("relay.calls")
        tracer.observe("relay.latency", 0.25)
        tracer.record_sql("SELECT :n", seconds=0.2, rows=payload)
    return payload * 10


def emit_then_die(payload):
    from repro.telemetry import get_tracer

    tracer = get_tracer()
    with tracer.span("unit.doomed.setup"):
        tracer.incr("relay.doomed")
    os.kill(os.getpid(), signal.SIGKILL)


def silent(payload):
    return payload


# -- worker spools: written by JsonlSink, merged by merge_spool ---------------
class TestSpool:
    """The relay's side of a spool; the line-level durability rule itself
    is pinned once, in ``test_sinks.py::TestScanJsonl``."""

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "spool.jsonl")
        sink = JsonlSink(path)
        sink.write({"type": "metric", "op": "incr", "name": "x", "value": 1})
        sink.write({"type": "metric", "op": "incr", "name": "x", "value": 2})
        sink.close()
        sink.close()  # idempotent
        parent = Tracer()
        assert merge_spool(parent, path) == 2
        assert parent.registry.counter("x") == 3

    def test_missing_spool_is_empty(self, tmp_path):
        # a worker that died before its first event leaves no spool
        assert merge_spool(Tracer(), str(tmp_path / "nope.jsonl")) == 0

    def test_torn_tail_dropped(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "metric", "op": "incr",
                                 "name": "ok", "value": 1}) + "\n")
            fh.write('{"type": "metric", "na')  # the write the kill cut
        parent = Tracer()
        assert merge_spool(parent, path) == 1
        assert parent.registry.counter("ok") == 1


# -- RelayTracer + merge_spool -------------------------------------------------
class TestMerge:
    def _spooled(self, tmp_path, record):
        """Run ``record(relay_tracer)`` and return the spool path."""
        path = str(tmp_path / "worker.jsonl")
        relay = RelayTracer(sinks=[JsonlSink(path)], slow_sql_seconds=0.05)
        record(relay)
        relay.close()
        return path

    def test_metrics_replay_into_registry(self, tmp_path):
        def record(relay):
            relay.incr("a.calls", 2)
            relay.gauge("a.depth", 7)
            relay.observe("a.seconds", 0.5)

        parent = Tracer()
        merged = merge_spool(parent, self._spooled(tmp_path, record))
        assert merged == 3
        assert parent.registry.counter("a.calls") == 2
        assert parent.registry.gauges["a.depth"] == 7
        assert parent.registry.histograms["a.seconds"].count == 1

    def test_spans_fold_into_span_stats(self, tmp_path):
        def record(relay):
            with relay.span("unit.work"):
                pass
            with relay.span("unit.work"):
                pass

        parent = Tracer()
        merge_spool(parent, self._spooled(tmp_path, record))
        assert parent.span_stats["unit.work"].count == 2

    def test_sql_folds_without_double_counting(self, tmp_path):
        def record(relay):
            relay.record_sql("SELECT 1", seconds=0.2, rows=3)

        parent = Tracer()
        merge_spool(parent, self._spooled(tmp_path, record))
        # The statement aggregate and slow-query capture come from the
        # sql event; the sql.* counters come only from the replayed
        # metric events — each applied exactly once.
        assert parent.sql_statements["SELECT 1"].count == 1
        assert parent.sql_statements["SELECT 1"].rows == 3
        assert parent.registry.counter("sql.queries") == 1
        assert parent.registry.counter("sql.rows_returned") == 3
        assert parent.registry.histograms["sql.seconds"].count == 1
        assert [q["statement"] for q in parent.slow_queries] == ["SELECT 1"]

    def test_merged_events_keep_original_attribution(self, tmp_path):
        def record(relay):
            with use_context(TraceContext(run_id="R", unit_id="u7",
                                          worker_id="w3")):
                relay.incr("a.calls")

        sink = ListSink()
        parent = Tracer(sinks=[sink])
        merge_spool(parent, self._spooled(tmp_path, record))
        (event,) = sink.of_type("metric")
        assert (event["run_id"], event["unit_id"], event["worker_id"]) == \
            ("R", "u7", "w3")

    def test_remove_deletes_spool(self, tmp_path):
        path = self._spooled(tmp_path, lambda relay: relay.incr("x"))
        merge_spool(Tracer(), path, remove=True)
        assert not os.path.exists(path)


# -- run_units integration -----------------------------------------------------
class TestRunUnitsRelay:
    def test_process_workers_relay_into_parent(self):
        sink = ListSink()
        with use_tracer(Tracer(sinks=[sink])) as tracer:
            results = run_units([("a", 1), ("b", 2)], emit_telemetry,
                                workers=2, run_id="RID")
            assert [r.value for r in results] == [10, 20]
            assert tracer.span_stats["unit.work"].count == 2
            assert tracer.registry.counter("relay.calls") == 2
            assert tracer.sql_statements["SELECT :n"].count == 2
        spans = sink.of_type("span")
        assert {(e["unit_id"], e["run_id"]) for e in spans} == \
            {("a", "RID"), ("b", "RID")}
        assert all(e["worker_id"].startswith("proc-") for e in spans)
        lifecycle = [e["type"] for e in sink.events
                     if e["type"].startswith("unit.")]
        assert lifecycle.count("unit.started") == 2
        assert lifecycle.count("unit.finished") == 2

    def test_inline_units_share_tracer_with_context(self):
        sink = ListSink()
        with use_tracer(Tracer(sinks=[sink])) as tracer:
            run_units([("a", 1)], emit_telemetry, workers=1, run_id="RID")
            assert tracer.span_stats["unit.work"].count == 1
        (span,) = sink.of_type("span")
        assert span["unit_id"] == "a" and span["run_id"] == "RID"
        assert span["worker_id"] == "inline"
        # Inline and process runs produce the same span names.
        assert span["name"] == "unit.work"

    def test_sigkilled_worker_leaves_attributed_partial_telemetry(self):
        sink = ListSink()
        with use_tracer(Tracer(sinks=[sink])) as tracer:
            (result,) = run_units([("doomed", 0)], emit_then_die)
            assert result.outcome == "crashed"
            # The span written before the SIGKILL survived in the spool
            # and merged, attributed to its unit.
            assert tracer.span_stats["unit.doomed.setup"].count == 1
            assert tracer.registry.counter("relay.doomed") == 1
        (span,) = sink.of_type("span")
        assert span["unit_id"] == "doomed"

    def test_disabled_tracer_spools_nothing(self, tmp_path, monkeypatch):
        # No spool directories appear when telemetry is off.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        tempfile.tempdir = None
        try:
            set_tracer(NULL_TRACER)
            results = run_units([("a", 1)], silent)
            assert results[0].ok
            assert not [p for p in tmp_path.iterdir()
                        if p.name.startswith("repro-spool-")]
        finally:
            tempfile.tempdir = None
