"""Telemetry floor — what instrumentation costs when telemetry is off.

Every pipeline stage opens spans and bumps counters on the active
tracer, which is the no-op :data:`~repro.telemetry.NULL_TRACER` unless a
run asks for ``--profile``, ``--trace-out`` or ``--report-out``
(docs/OBSERVABILITY.md).  This benchmark pins down that disabled-tracer
floor: the price every instrumented call site pays on an untraced run.

Fixed pedantic rounds keep the recorded numbers comparable across
commits, matching the other benchmark modules.
"""

from repro.telemetry import NULL_TRACER

ROUNDS = 20


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
