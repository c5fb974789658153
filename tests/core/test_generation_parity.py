"""Generation parity: the guarded-case step against the plain cross join.

A guarded-case step (``g0 ? b0 : g1 ? b1 : … : d`` with guards over
earlier columns and bodies over the new one) joins each row's arm index
to a table of the values each arm allows.  The oracle generates the same
table with every step filtering the plain cross join.  The two must agree
on the row *sequence* in rowid order, not just on the row set: mutations
address rows by rowid, and the committed mutation matrix pins them.
"""

from unittest import mock

import pytest

from repro.core import generator
from repro.core.database import ProtocolDatabase
from repro.core.expr import TRUE
from repro.core.generator import TableGenerator
from repro.core.mapping import ImplementationMapper
from repro.core.sqlgen import quote_ident
from repro.faults.mutations import MutationEngine
from repro.protocols.asura.hardware import extension_spec
from repro.protocols.family import SPECS, build_variant


def rowid_sequence(db, name):
    return [tuple(r.values()) for r in
            db.query(f"SELECT * FROM {quote_ident(name)} ORDER BY rowid")]


def generated(db, cs, name):
    TableGenerator(db, cs, table_name=name).generate_incremental()
    return rowid_sequence(db, name)


def cross_join_generated(db, cs, name):
    """The table as the plain cross-join step generates it: the oracle."""
    with mock.patch.object(generator, "guarded_arms", return_value=None):
        return generated(db, cs, name)


def assert_parity(cs, name):
    with ProtocolDatabase() as db:
        rows = generated(db, cs, name)
        assert rows == cross_join_generated(db, cs, f"{name}_oracle"), name
    return rows


@pytest.fixture(scope="module", params=tuple(SPECS))
def member(request):
    system = build_variant(request.param)
    yield system
    system.db.close()


def test_member_tables_match_cross_join(member):
    for name, cs in member.constraint_sets.items():
        rows = assert_parity(cs, name)
        assert rows == rowid_sequence(member.db, name), name


def test_extended_directory_matches_cross_join(member):
    cs = member.constraint_sets["D"]
    mapper = ImplementationMapper(member.db, member.tables["D"], cs)
    assert assert_parity(mapper.extended_constraints(extension_spec(cs)),
                         "ED")


def test_relaxed_tables_match_cross_join(system):
    relaxed = [m for m in MutationEngine(system, seed=0).sample(50)
               if m.relaxed_column is not None]
    assert len(relaxed) == 10
    for mutation in relaxed:
        cs = system.constraint_sets[mutation.target].copy()
        cs.replace(mutation.relaxed_column, TRUE)
        assert_parity(cs, mutation.target)


def test_guarded_steps_are_most_steps(system):
    steps = [(cs, group) for cs in system.constraint_sets.values()
             for group in cs.generation_plan()]
    plain = [group for cs, group in steps if len(group) > 1
             or generator.guarded_arms(cs.get(group[0]).expr, group[0]) is None]
    assert (len(steps), plain) == (55, [("result",), ("nxtlast",)])
