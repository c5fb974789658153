"""Changed-row checks against the full sweep, on every family member.

A table-scoped sweep judges row-local checks (expression invariants and
the determinism self-join) only on the rows that differ from the clean
copies.  The full sweep over whole tables is the
oracle: for any edit of a clean table the two must report the same
failed checks, in the same order, with the same rows, and the
determinism check the same pair count and first five pairs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import DatabaseError, ProtocolDatabase
from repro.core.sqlgen import quote_ident, quote_value
from repro.faults import prepare_reference_tables
from repro.faults.campaign import MutantTemplate
from repro.protocols.family import SPECS, build_variant

MEMBERS = tuple(SPECS)
TABLES = ("D", "M", "C", "N", "RAC", "IO", "NI", "PE")


@pytest.fixture(scope="module")
def templates():
    """Each member's campaign template: clean copies in the snapshot."""
    out = {}
    for key in MEMBERS:
        system = build_variant(key)
        prepare_reference_tables(system)
        out[key] = MutantTemplate.of(system)
        system.db.close()
    return out


#: one edit: (kind, row pick, column pick, value pick); picks are reduced
#: modulo what the table offers when the edit is applied.
EDITS = st.tuples(
    st.sampled_from(("cell", "null", "insert", "duplicate", "delete")),
    st.integers(0, 10_000), st.integers(0, 100), st.integers(0, 100))


def _apply(db, system, table, edit) -> None:
    kind, row, col, val = edit
    t = quote_ident(table)
    schema = system.tables[table].schema
    rowids = [r[0] for r in db.query_tuples(f"SELECT rowid FROM {t}")]
    rid = rowids[row % len(rowids)] if rowids else None
    column = schema.columns[col % len(schema.columns)]
    if kind == "insert":
        values = [c.domain[(val + i) % len(c.domain)]
                  for i, c in enumerate(schema.columns)]
        db.execute(f"INSERT INTO {t} ({', '.join(map(quote_ident, schema.column_names))}) "
                   f"VALUES ({', '.join(map(quote_value, values))})")
    elif rid is None:
        return
    elif kind == "cell":
        value = column.domain[val % len(column.domain)]
        db.execute(f"UPDATE {t} SET {quote_ident(column.name)} = "
                   f"{quote_value(value)} WHERE rowid = {rid}")
    elif kind == "null":
        db.execute(f"UPDATE {t} SET {quote_ident(column.name)} = NULL "
                   f"WHERE rowid = {rid}")
    elif kind == "duplicate":
        db.execute(f"INSERT INTO {t} SELECT * FROM {t} WHERE rowid = {rid}")
    else:
        db.execute(f"DELETE FROM {t} WHERE rowid = {rid}")


def _failures(results):
    return [(r.name, r.details) for r in results if not r.passed]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(member=st.sampled_from(MEMBERS), table=st.sampled_from(TABLES),
       edits=st.lists(EDITS, min_size=1, max_size=3))
def test_changed_rows_match_full_sweep(templates, member, table, edits):
    template = templates[member]
    with ProtocolDatabase.deserialize(template.snapshot) as db:
        system = template.system.attach(db)
        for edit in edits:
            _apply(db, system, table, edit)
        checker = template.checker.bound_to(db)
        full = (checker.check_all().results, system.check_determinism())
        scoped = (checker.check_all(tables=(table,)).results,
                  system.check_determinism(tables=(table,)))
        for whole, part in zip(full, scoped):
            assert _failures(part) == _failures(whole)
            ran = [r.name for r in part]
            assert ran == [r.name for r in whole if r.name in ran]
        controller = system.tables[table]
        assert (controller.overlapping_pairs(limit=5, changed=True)
                == controller.overlapping_pairs(limit=5))


class TestWithoutCleanCopy:
    """A scoped check on a system whose clean copies were never written
    fails with a short error naming the copy, not with the sweep's
    whole statement."""

    @pytest.fixture(scope="class")
    def system(self):
        system = build_variant("mesi")
        yield system
        system.db.close()

    def _assert_names_the_copy(self, exc) -> None:
        message = str(exc.value)
        assert "__clean_D" in message and "write_clean_copy" in message
        assert len(message) < 200 and "SELECT" not in message

    def test_scoped_sweep(self, system):
        with pytest.raises(DatabaseError) as exc:
            system.check_invariants(tables=["D"])
        self._assert_names_the_copy(exc)

    def test_scoped_determinism(self, system):
        with pytest.raises(DatabaseError) as exc:
            system.tables["D"].overlapping_pairs(changed=True)
        self._assert_names_the_copy(exc)

    def test_whole_sweep_needs_no_copy(self, system):
        assert system.check_invariants().passed
