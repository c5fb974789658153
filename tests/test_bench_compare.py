"""The benchmark gate: exact SQL statement counts per default module,
exact work counters where a module declares them."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(queries):
    return {"spans": {}, "wall_seconds": 1.0, "sql": {"queries": queries}}


def test_default_modules_gate_queries_exactly(bench_compare):
    assert set(bench_compare.EXACT_QUERIES) == set(bench_compare.DEFAULT_MODULES)


@pytest.mark.parametrize("current", [99, 101])
def test_changed_query_count_fails(bench_compare, current):
    failures = bench_compare.compare_module(
        "generation", report(100), report(current), 2.0)
    assert len(failures) == 1 and "sql queries 100 -> " in failures[0]


def test_same_query_count_passes(bench_compare):
    assert bench_compare.compare_module(
        "generation", report(100), report(100), 2.0) == []


def test_ungated_module_reports_only(bench_compare):
    assert bench_compare.compare_module(
        "composition", report(100), report(101), 2.0) == []


def timed(span_mean, wall=1.0):
    return {"spans": {"explore.oracle": {"mean_seconds": span_mean}},
            "wall_seconds": wall, "sql": {"queries": 100}}


def test_noise_sized_span_is_not_gated(bench_compare):
    """A 15.9 ms span that read 33.5 ms on one run, code unchanged."""
    assert 0.0159 < bench_compare.GATE_FLOOR_SECONDS
    assert bench_compare.compare_module(
        "exploration", timed(0.0159), timed(0.0335), 2.0) == []


def test_span_above_the_floor_is_gated_at_the_factor(bench_compare):
    base = bench_compare.GATE_FLOOR_SECONDS
    assert bench_compare.compare_module(
        "exploration", timed(base), timed(base * 1.9), 2.0) == []
    failures = bench_compare.compare_module(
        "exploration", timed(base), timed(base * 2.1), 2.0)
    assert len(failures) == 1 and "span explore.oracle" in failures[0]


def test_wall_time_is_gated_at_the_factor(bench_compare):
    failures = bench_compare.compare_module(
        "exploration", timed(0.01, wall=1.0), timed(0.01, wall=2.1), 2.0)
    assert len(failures) == 1 and "wall time" in failures[0]


def explored(states, transitions=10896):
    return {"spans": {}, "wall_seconds": 1.0, "sql": {"queries": 5},
            "counters": {"explore.states": states,
                         "explore.transitions": transitions}}


def test_exploration_gates_its_work_counters(bench_compare):
    assert bench_compare.EXACT_COUNTERS["exploration"] == (
        "explore.states", "explore.transitions")


def test_same_work_counters_pass(bench_compare):
    assert bench_compare.compare_module(
        "exploration", explored(6624), explored(6624), 2.0) == []


@pytest.mark.parametrize("current", [
    dict(states=6623), dict(states=6625), dict(states=6624, transitions=1)],
    ids=["fewer-states", "more-states", "transitions"])
def test_changed_work_counter_fails(bench_compare, current):
    failures = bench_compare.compare_module(
        "exploration", explored(6624), explored(**current), 2.0)
    assert len(failures) == 1 and "gated exactly" in failures[0]
    assert "counter explore." in failures[0]


def test_counters_of_other_modules_are_not_gated(bench_compare):
    assert bench_compare.compare_module(
        "simulation", explored(6624), explored(1), 2.0) == []


def test_mapping_queries_are_gated(bench_compare):
    # The mapping module guards the section-5 reconstruction (T6).
    assert "mapping" in bench_compare.DEFAULT_MODULES
    failures = bench_compare.compare_module(
        "mapping", report(100), report(101), 2.0)
    assert len(failures) == 1 and "sql queries 100 -> 101" in failures[0]
