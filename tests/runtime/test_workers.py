"""Tests for the unit runner: the inline loop, the process pool and its
watchdog.

The unit functions are module-level so they pickle under any
multiprocessing start method (spawn included).
"""

import os
import time

import pytest

from repro.runtime import UnitResult, run_units


def double(payload):
    return payload * 2


def crash(payload):
    raise RuntimeError(f"boom on {payload}")


def crash_on_two(payload):
    if payload == 2:
        raise RuntimeError("boom on 2")
    return payload


def hard_exit(payload):
    os._exit(3)  # dies without reporting — like a segfault or OOM kill


def pid_of(payload):
    return os.getpid()


def interrupt(payload):
    raise KeyboardInterrupt


def sleep_on_two(payload):
    if payload == 2:
        time.sleep(60)
    return payload


def units_of(*payloads):
    return [(f"u{p}", p) for p in payloads]


class TestInline:
    def test_results_in_submission_order(self):
        results = run_units(units_of(3, 1, 2), double, workers=1)
        assert [r.value for r in results] == [6, 2, 4]
        assert [r.unit_id for r in results] == ["u3", "u1", "u2"]
        assert all(r.ok and r.outcome == "ok" for r in results)

    def test_one_crash_does_not_discard_siblings(self):
        results = run_units(units_of(1, 2, 3), crash_on_two, workers=1)
        assert [r.outcome for r in results] == ["ok", "crashed", "ok"]
        assert results[1].error == "RuntimeError: boom on 2"
        assert results[0].value == 1 and results[2].value == 3

    def test_on_result_called_per_unit(self):
        seen = []
        run_units(units_of(1, 2), double, workers=1,
                  on_result=lambda r: seen.append(r.unit_id))
        assert seen == ["u1", "u2"]

    def test_runs_in_the_caller(self):
        (result,) = run_units(units_of(1), pid_of, workers=1)
        assert result.value == os.getpid()

    def test_keyboard_interrupt_propagates(self):
        seen = []
        with pytest.raises(KeyboardInterrupt):
            run_units(units_of(1, 2, 3), interrupt, workers=1,
                      on_result=lambda r: seen.append(r.unit_id))
        assert seen == []

    def test_empty_units(self):
        assert run_units([], double, workers=1) == []


class TestProcessIsolation:
    def test_values_cross_the_process_boundary(self):
        results = run_units(units_of(1, 2, 3), double, workers=2)
        assert [r.value for r in results] == [2, 4, 6]

    def test_more_than_one_worker_runs_in_children(self):
        results = run_units(units_of(1, 2), pid_of, workers=2)
        assert os.getpid() not in [r.value for r in results]

    def test_exception_becomes_crashed_result(self):
        (result,) = run_units(units_of(5), crash)
        assert result.outcome == "crashed"
        assert result.error == "RuntimeError: boom on 5"

    def test_silent_death_becomes_crashed_result(self):
        (result,) = run_units(units_of(1), hard_exit)
        assert result.outcome == "crashed"
        assert "exit code 3" in result.error

    def test_watchdog_reaps_hung_unit_and_siblings_complete(self):
        t0 = time.monotonic()
        results = run_units(units_of(1, 2, 3), sleep_on_two, workers=3,
                            timeout=2.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 30  # nowhere near the 60s sleep
        assert [r.outcome for r in results] == ["ok", "timeout", "ok"]
        assert [r.value for r in results] == [1, None, 3]
        assert "2s wall-clock timeout" in results[1].error

    def test_timeout_with_one_worker_runs_in_a_child_and_is_reaped(self):
        t0 = time.monotonic()
        (result,) = run_units(units_of(2), sleep_on_two, workers=1,
                              timeout=1.0)
        assert result.outcome == "timeout"
        assert "1s wall-clock timeout" in result.error
        assert time.monotonic() - t0 < 30

    def test_on_result_sees_timeouts(self):
        outcomes = []
        run_units(units_of(2), sleep_on_two, timeout=1.0,
                  on_result=lambda r: outcomes.append(r.outcome))
        assert outcomes == ["timeout"]


class TestUnitResult:
    def test_ok_property(self):
        assert UnitResult("u", "ok").ok
        assert not UnitResult("u", "timeout").ok
        assert not UnitResult("u", "crashed").ok
