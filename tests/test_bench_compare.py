"""The benchmark gate: exact SQL statement counts per default module."""

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
        "mapping", report(100), report(101), 2.0) == []
