"""Analysis utilities: cycle detection and protocol statistics."""

from .cycles import (
    cyclic_vertices,
    cyclic_vertices_sql,
    find_cycles,
    strongly_connected_components,
)

__all__ = [
    "cyclic_vertices",
    "cyclic_vertices_sql",
    "find_cycles",
    "strongly_connected_components",
]

from .stats import ProtocolStats, collect

__all__ += ["ProtocolStats", "collect"]

from .coverage import (
    LEDGER_COLUMNS,
    LEDGER_TABLE,
    CoverageRecorder,
    CoverageReport,
    TableCoverage,
    coverage_report,
    distinct_rows,
    ledger_rows,
    read_ledger,
    write_ledger,
)

__all__ += [
    "CoverageRecorder", "CoverageReport", "TableCoverage", "coverage_report",
    "LEDGER_TABLE", "LEDGER_COLUMNS", "read_ledger", "write_ledger",
    "ledger_rows", "distinct_rows",
]

from .closedloop import (
    REPAIR_BENCH_SCHEMA,
    build_repair_report,
    compare_repair_baseline,
    guided_coverage_delta,
)

__all__ += [
    "REPAIR_BENCH_SCHEMA", "build_repair_report", "compare_repair_baseline",
    "guided_coverage_delta",
]
