"""Golden simulation runs: the simulator's observable behaviour, pinned.

``fixtures/golden_runs.json`` records, for the directed scenarios and
seeded random and guided workloads on every channel assignment, what a
run is judged by: its status, step and message counts, the deadlock
wait cycle, the message trace and the controller-table rows it covered
(with hit counts).  Sequence numbers are left out: they only order
sends.  Any change to the transition relation or to the scheduler that
alters one interleaving shows up here as a diff.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/sim/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.coverage import CoverageRecorder
from repro.sim import (
    ensure_recorder,
    figure2_scenario,
    figure4_scenario,
    guided_workload,
    random_workload,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden_runs.json"

ASSIGNMENTS = ("v4", "v5", "v5d")


def _workloads(system, assignment):
    yield "figure2", figure2_scenario(system, assignment=assignment)
    yield "figure4", figure4_scenario(system, assignment=assignment)
    for seed in range(4):
        yield f"random{seed}", random_workload(
            system, assignment=assignment, seed=seed, n_ops=100)
    for seed in range(3):
        # An explicit empty ledger: the shared test database may hold
        # coverage other tests persisted.
        yield f"guided{seed}", guided_workload(
            system, assignment=assignment, seed=seed,
            ledger=CoverageRecorder())


def _record(workload) -> dict:
    recorder = ensure_recorder(workload.simulator)
    result = workload.run()
    return {
        "status": result.status,
        "steps": result.steps,
        "messages": result.messages,
        "deadlock_cycle": [list(key) for key in result.deadlock_cycle],
        "trace": [[e.step, e.msg, e.src, e.dst, e.addr, e.channel]
                  for e in result.trace],
        "coverage": sorted([table, rowid, hits]
                           for table, counter in recorder.hits.items()
                           for rowid, hits in counter.items()),
    }


def golden_runs(system) -> dict:
    return {
        f"{name}/{assignment}": _record(workload)
        for assignment in ASSIGNMENTS
        for name, workload in _workloads(system, assignment)
    }


def _dump(runs: dict) -> str:
    # One run per line keeps a behaviour diff readable.
    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(run)}"
                      for key, run in sorted(runs.items()))
    return "{\n" + body + "\n}\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_run(system, golden):
    assert len(golden) == len(ASSIGNMENTS) * 9


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_runs_match_golden(system, golden, assignment):
    for name, workload in _workloads(system, assignment):
        key = f"{name}/{assignment}"
        assert _record(workload) == golden[key], key


if __name__ == "__main__":
    from repro.protocols.asura import build_system

    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_dump(golden_runs(build_system())))
    print(f"wrote {FIXTURE}", file=sys.stderr)
