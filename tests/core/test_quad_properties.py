"""Property tests: quad placement merging agrees between Python and SQL.

The deadlock engine derives each placement's dependency rows from the
exact rows with a SQL ``CASE`` substitution
(:func:`repro.core.deadlock._placed_sql`); the row-at-a-time oracle
applies :func:`.deadlock_oracle.placed_role` row by row.  These must be the same function, for
every placement and every endpoint combination, or the per-placement VCGs
silently drift apart.
"""

import sqlite3

from hypothesis import given, settings, strategies as st

from repro.core.deadlock import _DEP_COLUMNS, _ROLES, _placed_sql
from repro.core.quad import ALL_PLACEMENTS, Placement

from .deadlock_oracle import placed_role

#: quad roles plus the pass-through endpoint names that appear in specs.
ROLES = ("local", "home", "remote", "cache", "dev", "pio")

placements_st = st.sampled_from(ALL_PLACEMENTS)
roles_st = st.sampled_from(ROLES)
quad_roles_st = st.sampled_from(("local", "home", "remote"))

dep_rows_st = st.fixed_dictionaries({
    "in_msg": st.sampled_from(("mread", "sinv", "mdone", "wb")),
    "in_src": roles_st,
    "in_dst": roles_st,
    "in_vc": st.sampled_from(("VC0", "VC1", "VC2", "CPU")),
    "out_msg": st.sampled_from(("mread", "sinv", "mdone", "wb")),
    "out_src": roles_st,
    "out_dst": roles_st,
    "out_vc": st.sampled_from(("VC0", "VC1", "VC2", "CPU")),
    "controller": st.sampled_from(("D", "C", "IO")),
    "placement": st.just("exact"),
    "derived": st.sampled_from((0, 1)),
})


@settings(max_examples=200, deadline=None)
@given(placement=placements_st, role=roles_st)
def test_apply_is_idempotent(placement, role):
    once = placed_role(placement, role)
    assert placed_role(placement, once) == once


@settings(max_examples=200, deadline=None)
@given(placement=placements_st, a=quad_roles_st, b=quad_roles_st)
def test_apply_collapses_exactly_the_merge_classes(placement, a, b):
    same_class = a == b or any(
        a in cls and b in cls for cls in placement.merges())
    assert (placed_role(placement, a) == placed_role(placement, b)) == same_class


@settings(max_examples=100, deadline=None)
@given(placement=placements_st)
def test_representatives_come_from_their_class(placement):
    for role, rep in placement.substitution.items():
        assert rep in placement.substitution
        assert placement.substitution[rep] == rep
        if rep != role:
            assert any(role in cls and rep in cls
                       for cls in placement.merges())


@settings(max_examples=100, deadline=None)
@given(placement=placements_st, role=st.sampled_from(("cache", "dev", "pio")))
def test_non_quad_endpoints_pass_through(placement, role):
    assert placed_role(placement, role) == role


def derive_via_sql(placement, rows):
    """Run the engine's CASE-substitution SQL over ``rows``."""
    conn = sqlite3.connect(":memory:")
    try:
        cols = [c for c in _DEP_COLUMNS if c != "placement"]
        conn.execute(f"CREATE TABLE exact (n, {', '.join(cols)})")
        conn.executemany(
            f"INSERT INTO exact VALUES ({', '.join('?' for _ in cols)}, ?)",
            [(n, *(r[c] for c in cols)) for n, r in enumerate(rows)])
        select = ", ".join(f"p_{c}" if c in _ROLES else c
                           for c in _DEP_COLUMNS)
        out = conn.execute(
            f"SELECT {select} FROM ({_placed_sql('exact', (placement,))}) "
            f"ORDER BY n").fetchall()
        return [dict(zip(_DEP_COLUMNS, r)) for r in out]
    finally:
        conn.close()


def derive_via_python(placement, rows):
    """The oracle: substitute merged roles with placed_role."""
    out = []
    for r in rows:
        derived = dict(r)
        for c in ("in_src", "in_dst", "out_src", "out_dst"):
            derived[c] = placed_role(placement, r[c])
        derived["placement"] = placement.value
        out.append(derived)
    return out


@settings(max_examples=200, deadline=None)
@given(placement=placements_st,
       rows=st.lists(dep_rows_st, min_size=1, max_size=4))
def test_sql_derivation_matches_placement_apply(placement, rows):
    assert derive_via_sql(placement, rows) == derive_via_python(placement, rows)


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(dep_rows_st, min_size=1, max_size=3))
def test_all_distinct_derivation_only_renames_placement(rows):
    derived = derive_via_sql(Placement.ALL_DISTINCT, rows)
    expected = [dict(r, placement=Placement.ALL_DISTINCT.value)
                for r in rows]
    assert derived == expected
