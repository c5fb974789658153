"""Telemetry wired through the real pipelines: generation, invariants,
deadlock analysis, and the simulator."""

import pytest

from repro import telemetry
from repro.protocols.asura import build_system
from repro.sim import figure2_scenario
from repro.telemetry import Tracer, use_tracer


@pytest.fixture(scope="module")
def traced_run():
    """One fully traced build + check + deadlock + simulate run."""
    tracer = Tracer()
    with use_tracer(tracer):
        system = build_system()
        report = system.check_invariants()
        analysis = system.analyze_deadlocks("v5d")
        result = figure2_scenario(system).run()
    return tracer, report, analysis, result


class TestGenerationSpans:
    def test_table_generation_produces_spans(self, traced_run):
        tracer, *_ = traced_run
        # One statement per table: no per-step spans.
        assert tracer.span_stats["generate.table"].count == 8
        assert "generate.inputs" not in tracer.span_stats
        assert "generate.column" not in tracer.span_stats
        assert tracer.span_stats["system.build"].count == 1

    def test_table_spans_measure_time(self, traced_run):
        tracer, *_ = traced_run
        assert tracer.span_stats["generate.table"].total_seconds > 0


class TestInvariantTallies:
    def test_pass_fail_counters(self, traced_run):
        tracer, report, *_ = traced_run
        c = tracer.registry.counters
        assert c["invariant.checks"] == len(report.results)
        assert c["invariant.passed"] == len(report.results)
        assert c.get("invariant.failed", 0) == 0
        assert c.get("invariant.violations", 0) == 0

    def test_check_results_keep_durations(self, traced_run):
        _, report, *_ = traced_run
        assert all(r.seconds >= 0 for r in report.results)
        assert report.total_seconds > 0


class TestDeadlockTelemetry:
    def test_composition_counter_and_span(self, traced_run):
        tracer, _, analysis, _ = traced_run
        assert tracer.registry.counters["deadlock.compositions"] > 0
        assert tracer.span_stats["deadlock.analyze"].count == 1
        assert tracer.span_stats["deadlock.compose"].count == 1
        assert tracer.registry.gauges["deadlock.dependency_rows"] == len(
            analysis.dependency_rows
        )

    def test_build_seconds_still_reported(self, traced_run):
        _, _, analysis, _ = traced_run
        assert analysis.build_seconds > 0


class TestSimulatorTelemetry:
    def test_message_counter_matches_result(self, traced_run):
        tracer, _, _, result = traced_run
        c = tracer.registry.counters
        assert c["sim.messages_delivered"] == result.messages
        assert c["sim.runs.quiescent"] == 1
        assert tracer.span_stats["sim.run"].count == 1

    def test_sql_traffic_observed(self, traced_run):
        tracer, *_ = traced_run
        assert tracer.registry.counters["sql.queries"] > 100
        assert tracer.registry.histograms["sql.seconds"].count > 100
