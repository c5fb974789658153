"""Resilience runtime overhead — the cost of crash-safety.

The checkpoint journal fsyncs after every completed mutant so a SIGKILL
never loses a finished verdict (docs/RESILIENCE.md).  That durability
has a price per record; these benchmarks pin it down, together with the
atomic report writes — both must stay negligible next to the
milliseconds a single mutant verification costs.

Fixed pedantic rounds keep the recorded numbers comparable across
commits, matching the other benchmark modules.
"""

import pytest

from repro.runtime import CheckpointJournal, atomic_write_json, load_journal

ROUNDS_JOURNAL = 20
ROUNDS_WRITE = 50
RECORDS_PER_ROUND = 50


def test_journal_append_with_fsync(benchmark, tmp_path):
    """Durable append throughput: 50 fsync'd unit records per round."""
    counter = {"n": 0}

    def append_batch():
        counter["n"] += 1
        path = str(tmp_path / f"j{counter['n']}.jsonl")
        with CheckpointJournal.open(path, {"kind": "bench"}) as j:
            for i in range(RECORDS_PER_ROUND):
                j.record(i, {"detected_by": "invariants", "mutant": i})
        return path

    path = benchmark.pedantic(
        append_batch, rounds=ROUNDS_JOURNAL, iterations=1, warmup_rounds=1,
    )
    _, units = load_journal(path)
    assert len(units) == RECORDS_PER_ROUND


def test_journal_replay(benchmark, tmp_path):
    """Resume-time cost of reloading a 500-unit journal."""
    path = str(tmp_path / "replay.jsonl")
    with CheckpointJournal.open(path, {"kind": "bench"}) as j:
        for i in range(500):
            j.record(i, {"detected_by": None, "mutant": i})

    _, units = benchmark.pedantic(
        lambda: load_journal(path),
        rounds=ROUNDS_JOURNAL, iterations=1, warmup_rounds=1,
    )
    assert len(units) == 500


def test_atomic_matrix_write(benchmark, tmp_path):
    """Temp-and-rename cost for a 50-mutant detection matrix."""
    path = str(tmp_path / "matrix.json")
    matrix = {
        "schema": "repro.faults.matrix/v1",
        "mutants": [{"mutant_id": i, "fault_class": "drop-row",
                     "detected_by": "invariants"} for i in range(50)],
    }

    benchmark.pedantic(
        lambda: atomic_write_json(path, matrix),
        rounds=ROUNDS_WRITE, iterations=1, warmup_rounds=1,
    )
    import json
    assert json.load(open(path))["schema"] == "repro.faults.matrix/v1"
