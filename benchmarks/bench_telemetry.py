"""Telemetry relay overhead — the cost of cross-process observability.

Process-isolated campaign workers spool every span/SQL/counter event to
a flush-per-event JSONL file and the parent folds the spool back into
its tracer (docs/OBSERVABILITY.md, "The cross-process relay").  That
durability and attribution have a per-event price; these benchmarks pin
down both sides of the relay — child-side spooling and parent-side
merging — plus the no-op floor of the disabled tracer, which is what
every instrumented call site costs when telemetry is off.

Fixed pedantic rounds keep the recorded numbers comparable across
commits, matching the other benchmark modules.
"""

import pytest

from repro.telemetry import (
    NULL_TRACER,
    JsonlSink,
    RelayTracer,
    TraceContext,
    Tracer,
    merge_spool,
    read_jsonl,
    set_context,
)

ROUNDS = 20
EVENTS_PER_ROUND = 200


def _fill_spool(path, events=EVENTS_PER_ROUND):
    """Write a worker-shaped spool: spans, slow SQL, and counters under
    a unit/worker trace context, exactly as ``_child_main`` would."""
    tracer = RelayTracer(sinks=[JsonlSink(path)], slow_sql_seconds=0.05)
    set_context(TraceContext(run_id="bench", unit_id=7, worker_id="proc-1"))
    try:
        for i in range(events):
            with tracer.span("bench.unit", step=i):
                tracer.incr("bench.events")
            tracer.record_sql("SELECT :n", seconds=0.0001, rows=1)
        tracer.close()
    finally:
        set_context(None)
    return path


def test_worker_spool_append(benchmark, tmp_path):
    """Child-side relay throughput: 200 spans+SQL+counters per round,
    flushed per event (the SIGKILL-durability guarantee)."""
    counter = {"n": 0}

    def spool_batch():
        counter["n"] += 1
        return _fill_spool(str(tmp_path / f"s{counter['n']}.jsonl"))

    path = benchmark.pedantic(
        spool_batch, rounds=ROUNDS, iterations=1, warmup_rounds=1,
    )
    events = read_jsonl(path)
    assert sum(1 for e in events if e["type"] == "span") == EVENTS_PER_ROUND
    assert all(e.get("worker_id") == "proc-1" for e in events)


def test_parent_merge_spool(benchmark, tmp_path):
    """Parent-side cost of folding one worker spool into the main
    tracer (replay events, fold span/SQL aggregates, apply counters)."""
    path = _fill_spool(str(tmp_path / "merge.jsonl"))

    def merge_once():
        tracer = Tracer()
        merge_spool(tracer, path, remove=False)
        return tracer

    tracer = benchmark.pedantic(
        merge_once, rounds=ROUNDS, iterations=1, warmup_rounds=1,
    )
    assert tracer.span_stats["bench.unit"].count == EVENTS_PER_ROUND
    assert tracer.registry.counters["bench.events"] == EVENTS_PER_ROUND


def test_null_tracer_floor(benchmark):
    """The disabled-telemetry floor: every instrumented call site pays
    this when no tracer is configured — it must stay negligible."""

    def noop_batch():
        for i in range(1000):
            with NULL_TRACER.span("bench.unit", step=i):
                NULL_TRACER.incr("bench.events")
        return True

    assert benchmark.pedantic(
        noop_batch, rounds=ROUNDS, iterations=1, warmup_rounds=2,
    )
