"""Experiment T6 / F5 — hardware mapping (paper section 5).

Claims reproduced: ED generation from the modified constraints, the nine
implementation tables, the reconstruction containment check ("it was also
explicitly checked that D could be reconstructed from these nine
implementation tables"), and code generation ("Code is automatically
generated from these tables using SQL report generation").

Benchmarks run with ``benchmark.pedantic`` and fixed round counts so the
query totals in ``BENCH_mapping.json`` are the same on every run;
``benchmarks/bench_compare.py`` gates them exactly.
"""

from repro.core.codegen import generate_python, generate_verilog
from repro.core.database import ProtocolDatabase
from repro.core.generator import TableGenerator
from repro.protocols.family import MESI
from repro.protocols.family.directory import directory_constraints
from repro.protocols.asura.hardware import build_hardware_mapping

#: fixed pedantic rounds — keep deterministic for BENCH_mapping.json.
ROUNDS_PIPELINE = 10
ROUNDS_RECONSTRUCTION = 100
ROUNDS_CODEGEN = 30


def _fresh_d():
    db = ProtocolDatabase()
    cs = directory_constraints(MESI)
    table = TableGenerator(db, cs).generate_incremental().table
    return db, table, cs


def test_full_mapping_pipeline(benchmark):
    """Extend -> partition (9 tables) -> reconstruct -> containment."""
    def run():
        db, d, cs = _fresh_d()
        hw = build_hardware_mapping(db, d, cs)
        result = hw.check_preserved()
        out = (len(hw.partitions), hw.ed.row_count, result.passed)
        db.close()
        return out

    n_parts, ed_rows, preserved = benchmark.pedantic(
        run, rounds=ROUNDS_PIPELINE, iterations=1, warmup_rounds=2,
    )
    assert n_parts == 9
    assert preserved


def test_ed_generation_only(benchmark):
    def run():
        db, d, cs = _fresh_d()
        from repro.core.mapping import ImplementationMapper
        from repro.protocols.asura.hardware import extension_spec
        mapper = ImplementationMapper(db, d, cs)
        res = mapper.extend(extension_spec(cs))
        rows = res.table.row_count
        db.close()
        return rows

    ed_rows = benchmark.pedantic(
        run, rounds=ROUNDS_PIPELINE, iterations=1, warmup_rounds=2,
    )
    assert ed_rows > 500


def test_reconstruction_check_only(benchmark, system):
    hw = build_hardware_mapping(
        system.db, system.tables["D"], system.constraint_sets["D"],
    )

    def run():
        return hw.mapper.check_preserved(hw.reconstructed, hw.plan)

    result = benchmark.pedantic(
        run, rounds=ROUNDS_RECONSTRUCTION, iterations=1, warmup_rounds=2,
    )
    assert result.passed


def test_python_code_generation(benchmark, system):
    def run():
        return generate_python(system.tables["D"])

    src = benchmark.pedantic(
        run, rounds=ROUNDS_CODEGEN, iterations=1, warmup_rounds=2,
    )
    assert "def D_next(" in src


def test_verilog_code_generation(benchmark, system):
    def run():
        return generate_verilog(system.tables["D"])

    src = benchmark.pedantic(
        run, rounds=ROUNDS_CODEGEN, iterations=1, warmup_rounds=2,
    )
    assert "module D" in src and src.count("begin") > 100
