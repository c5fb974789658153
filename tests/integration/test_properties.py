"""Cross-cutting property-based tests (hypothesis)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.codegen import compile_python
from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    ChannelAssignment,
    ControllerMessageSpec,
    DeadlockAnalyzer,
    MessageTriple,
    VCAssignment,
)
from repro.core.quad import Placement
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable


# ---------------------------------------------------------------------------
# Deadlock analysis: dedicating channels is monotone.
# ---------------------------------------------------------------------------

_MSGS = ("m0", "m1", "m2", "m3")
_ROLES = ("local", "home", "remote")
_VCS = ("VC0", "VC1", "VC2")

rule_st = st.tuples(
    st.sampled_from(_MSGS), st.sampled_from(_ROLES), st.sampled_from(_ROLES),
    st.sampled_from(_MSGS), st.sampled_from(_ROLES), st.sampled_from(_ROLES),
)


def _build_analysis(rules, dedicated):
    """One toy controller whose rows are the given in/out message rules."""
    schema = TableSchema("T", [
        Column("im", _MSGS, Role.INPUT),
        Column("isrc", _ROLES, Role.INPUT),
        Column("idst", _ROLES, Role.INPUT),
        Column("om", _MSGS, Role.OUTPUT),
        Column("osrc", _ROLES, Role.OUTPUT),
        Column("odst", _ROLES, Role.OUTPUT),
    ])
    rows = [
        {"im": a, "isrc": b, "idst": c, "om": d, "osrc": e, "odst": f}
        for a, b, c, d, e, f in rules
    ]
    assignments = [
        VCAssignment(m, s, d, _VCS[(hash((m, s, d)) % 3)])
        for m in _MSGS for s in _ROLES for d in _ROLES
    ]
    v = ChannelAssignment("prop", assignments, dedicated=dedicated)
    with ProtocolDatabase() as db:
        table = ControllerTable.from_rows(db, schema, rows, validate=False)
        spec = ControllerMessageSpec(
            controller=table,
            input_triple=MessageTriple("im", "isrc", "idst"),
            output_triples=(MessageTriple("om", "osrc", "odst"),),
        )
        analysis = DeadlockAnalyzer(db, [spec], v).analyze(
            placements=(Placement.ALL_DISTINCT, Placement.HOME_REMOTE),
        )
        return analysis.cyclic_channels()


@settings(max_examples=30, deadline=None)
@given(rules=st.lists(rule_st, min_size=1, max_size=6, unique=True),
       dedicate=st.sampled_from(_VCS))
def test_dedicating_a_channel_never_adds_cycles(rules, dedicate):
    """The paper's fix direction is always safe: making a channel an
    unbounded dedicated path can only remove potential deadlocks."""
    baseline = _build_analysis(rules, dedicated=())
    fixed = _build_analysis(rules, dedicated=(dedicate,))
    assert fixed <= baseline - {dedicate} | baseline
    assert dedicate not in fixed
    assert fixed <= baseline


@settings(max_examples=30, deadline=None)
@given(rules=st.lists(rule_st, min_size=1, max_size=6, unique=True))
def test_placement_relaxation_monotone(rules):
    """More quad placements can only add dependencies, never remove."""
    def cyclic(placements):
        schema = TableSchema("T", [
            Column("im", _MSGS, Role.INPUT),
            Column("isrc", _ROLES, Role.INPUT),
            Column("idst", _ROLES, Role.INPUT),
            Column("om", _MSGS, Role.OUTPUT),
            Column("osrc", _ROLES, Role.OUTPUT),
            Column("odst", _ROLES, Role.OUTPUT),
        ])
        rows = [
            {"im": a, "isrc": b, "idst": c, "om": d, "osrc": e, "odst": f}
            for a, b, c, d, e, f in rules
        ]
        assignments = [
            VCAssignment(m, s, d, _VCS[(hash((m, s, d)) % 3)])
            for m in _MSGS for s in _ROLES for d in _ROLES
        ]
        with ProtocolDatabase() as db:
            table = ControllerTable.from_rows(db, schema, rows, validate=False)
            spec = ControllerMessageSpec(
                controller=table,
                input_triple=MessageTriple("im", "isrc", "idst"),
                output_triples=(MessageTriple("om", "osrc", "odst"),),
            )
            a = DeadlockAnalyzer(
                db, [spec], ChannelAssignment("p", assignments)
            ).analyze(placements=placements)
            return {r.edge() for r in a.dependency_rows}

    exact = cyclic((Placement.ALL_DISTINCT,))
    relaxed = cyclic((Placement.ALL_DISTINCT, Placement.ALL_SAME))
    assert exact <= relaxed


# ---------------------------------------------------------------------------
# Codegen: the generated Python function is the table, for random tables.
# ---------------------------------------------------------------------------

_IN1 = ("a", "b")
_IN2 = ("p", "q", "r")
_OUT = ("x", "y", None)


@settings(max_examples=40, deadline=None)
@given(outputs=st.lists(st.sampled_from(_OUT), min_size=6, max_size=6))
def test_codegen_equals_lookup_on_random_tables(outputs):
    schema = TableSchema("G", [
        Column("i1", _IN1, Role.INPUT, nullable=False),
        Column("i2", _IN2, Role.INPUT, nullable=False),
        Column("o", ("x", "y"), Role.OUTPUT),
    ])
    rows = [
        {"i1": i1, "i2": i2, "o": out}
        for (i1, i2), out in zip(itertools.product(_IN1, _IN2), outputs)
    ]
    with ProtocolDatabase() as db:
        table = ControllerTable.from_rows(db, schema, rows)
        fn = compile_python(table)
        for row in rows:
            assert fn(i1=row["i1"], i2=row["i2"]) == {"o": row["o"]}


# ---------------------------------------------------------------------------
# Simulator conservation: pushes equal pops at quiescence.
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["node:0.0", "node:0.1", "node:1.0"]),
              st.sampled_from(["ld", "st", "evict"]),
              st.sampled_from(["A", "B"])),
    max_size=15,
))
def test_no_message_loss(system, ops):
    from repro.sim.system import SimConfig, Simulator
    sim = Simulator(system, config=SimConfig(
        n_quads=2, nodes_per_quad=2, default_capacity=2,
        home_map={"A": 0, "B": 1}, reissue_delay=5,
    ))
    for node, op, addr in ops:
        sim.inject_op(node, op, addr)
    result = sim.run()
    assert result.status == "quiescent"
    # Every message pushed into a channel (traced) was eventually
    # consumed (counted by the scheduler); nothing remains in flight.
    assert sim.state[0] == ()
    assert len(result.trace) == result.messages
