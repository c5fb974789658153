"""Unit and property tests for the graph algorithms.

``networkx`` is a dev-only dependency used here, and only here, as an
independent oracle for the stdlib implementations.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.analysis.cycles import (
    cyclic_vertices,
    find_cycles,
    strongly_connected_components,
)

from ..core.deadlock_oracle import cyclic_vertices_sql


def canonical_cycle(cycle):
    """Rotate a cycle to start at its smallest vertex, the form
    :func:`find_cycles` returns (applied to the oracle's cycles)."""
    if not cycle:
        return ()
    i = min(range(len(cycle)), key=lambda k: cycle[k])
    return tuple(cycle[i:]) + tuple(cycle[:i])


class TestCanonicalCycle:
    def test_rotation_to_minimum(self):
        assert canonical_cycle(("c", "a", "b")) == ("a", "b", "c")

    def test_already_canonical(self):
        assert canonical_cycle(("a", "b")) == ("a", "b")

    def test_empty(self):
        assert canonical_cycle(()) == ()

    def test_rotations_share_canonical_form(self):
        assert canonical_cycle(("b", "c", "a")) == canonical_cycle(("a", "b", "c"))


class TestFindCycles:
    def test_simple_two_cycle(self):
        assert find_cycles([("a", "b"), ("b", "a")]) == [("a", "b")]

    def test_self_loop(self):
        assert find_cycles([("a", "a")]) == [("a",)]

    def test_dag_has_none(self):
        assert find_cycles([("a", "b"), ("b", "c"), ("a", "c")]) == []

    def test_multiple_cycles_sorted(self):
        cycles = find_cycles(
            [("a", "b"), ("b", "a"), ("c", "c")]
        )
        assert cycles == [("a", "b"), ("c",)]


class TestCyclicVertices:
    def test_scc_members(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        assert cyclic_vertices(edges) == {"a", "b", "c"}

    def test_self_loop_vertex(self):
        assert cyclic_vertices([("x", "x"), ("x", "y")]) == {"x"}

    def test_sql_matches_simple(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c")]
        assert cyclic_vertices_sql(edges) == {"a", "b"}

    def test_sql_empty_graph(self):
        assert cyclic_vertices_sql([]) == set()


class TestStronglyConnectedComponents:
    def test_isolated_vertices_are_singletons(self):
        assert sorted(strongly_connected_components(["a", "b"], [])) == \
            [("a",), ("b",)]

    def test_chain_in_topological_order(self):
        assert strongly_connected_components(
            ["c", "b", "a"], [("a", "b"), ("b", "c")]) == \
            [("a",), ("b",), ("c",)]

    def test_cycle_is_one_component(self):
        comps = strongly_connected_components(
            [], [("a", "b"), ("b", "a"), ("b", "c")])
        assert [set(c) for c in comps] == [{"a", "b"}, {"c"}]

    def test_long_chain_needs_no_recursion(self):
        n = 5000
        comps = strongly_connected_components(
            range(n), [(i, i + 1) for i in range(n - 1)])
        assert comps == [(i,) for i in range(n)]


edges_st = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")),
    max_size=25,
)


def _digraph(edges):
    g = nx.DiGraph()
    g.add_edges_from(edges)
    return g


@settings(max_examples=200, deadline=None)
@given(edges=edges_st)
def test_sql_and_networkx_agree_on_random_graphs(edges):
    """The three cyclic-vertex computations agree: SCC, recursive SQL,
    and the networkx oracle."""
    g = _digraph(edges)
    oracle = {v for c in nx.strongly_connected_components(g)
              for v in c if len(c) > 1 or g.has_edge(v, v)}
    assert cyclic_vertices(edges) == oracle
    assert cyclic_vertices_sql(edges) == oracle


@settings(max_examples=200, deadline=None)
@given(edges=edges_st)
def test_find_cycles_matches_networkx(edges):
    oracle = sorted({canonical_cycle(c)
                     for c in nx.simple_cycles(_digraph(edges))})
    assert find_cycles(edges) == oracle


@settings(max_examples=200, deadline=None)
@given(vertices=st.lists(st.sampled_from("abcdefg"), unique=True),
       edges=edges_st)
def test_components_partition_and_are_topologically_ordered(vertices,
                                                            edges):
    comps = strongly_connected_components(vertices, edges)
    position = {v: i for i, c in enumerate(comps) for v in c}
    assert sum(len(c) for c in comps) == len(position)
    assert set(position) == set(vertices) | {v for e in edges for v in e}
    oracle = nx.strongly_connected_components(_digraph(edges))
    assert {frozenset(c) for c in comps if len(c) > 1} == \
        {frozenset(c) for c in oracle if len(c) > 1}
    for a, b in edges:
        assert position[a] <= position[b]


@settings(max_examples=100, deadline=None)
@given(edges=edges_st)
def test_cycle_vertices_consistent_with_cycle_list(edges):
    vertices = set()
    for cycle in find_cycles(edges):
        vertices |= set(cycle)
    assert vertices == cyclic_vertices(edges)
