"""Experiments T2 / F1 — protocol size statistics (sections 2, 3, 6).

Paper values: 8 controller tables; ~50 message types; D = 30 columns x
~500 rows with ~40 busy states; initial tables built by three architects
in two months, regenerated in minutes per revision.  The benchmark
regenerates the entire 8-controller system and prints the side-by-side
comparison that EXPERIMENTS.md records.
"""

from repro.analysis.stats import collect
from repro.protocols.asura import build_system


def test_full_system_generation(benchmark):
    """Regenerating the complete enhanced architecture specification —
    the paper's per-revision cost."""
    def run():
        sys_ = build_system()
        stats = collect(sys_)
        sys_.db.close()
        return stats

    stats = benchmark(run)
    assert stats.controllers == 8
    assert 45 <= stats.message_types <= 60
    assert stats.directory_columns == 31
    lines = ["", "quantity                 paper           ours"]
    for quantity, paper, ours in stats.paper_comparison():
        lines.append(f"{quantity:<24} {paper:<15} {ours}")
    print("\n".join(lines))


def test_message_catalog_lookup(benchmark):
    from repro.protocols import messages as M

    def run():
        return [M.is_request(m.name) or M.is_response(m.name)
                or m.kind is M.Kind.INTERNAL for m in M.CATALOG]

    flags = benchmark(run)
    assert all(flags)


def test_per_table_stats(benchmark, system):
    def run():
        return {n: t.stats() for n, t in system.tables.items()}

    per_table = benchmark(run)
    assert per_table["D"].n_rows > 150
    assert sum(s.n_rows for s in per_table.values()) > 250
