"""Differential tests: compiled kernels vs SQL lookups.

The compiled dispatch kernels (``repro.core.kernel``) are the
transition backend of the explorer and the simulator; the SQL-backed
tables are the semantics oracle
(:func:`tests.explore.sql_oracle.sql_lookups`).  Everything here
pins the kernels byte-identical to the oracle: lookup results *and*
error messages, per-state expansions, and whole-run results on clean
and mutated tables across every fault class.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    SIMULATED_TABLES,
    KernelTable,
    compile_system_kernels,
)
from repro.core.schema import SchemaError
from repro.core.table import (
    AmbiguousMatchError,
    ControllerTable,
    NoMatchError,
)
from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.explore.explorer import _expand_state, _quad_classes
from repro.explore.state import canonicalize, hash_state, permute_quads
from repro.faults.mutations import FAULT_CLASSES, MutationEngine
from repro.protocols.asura import build_system

from .sql_oracle import sql_lookups

_LOOKUP_ERRORS = (NoMatchError, AmbiguousMatchError, SchemaError)

#: Out-of-domain probe: matches only wildcard rows on both paths.
_BOGUS = "__no-such-value__"


def _outcome(fn, **inputs):
    """Normalized result of a lookup: value, or error class + message."""
    try:
        return ("ok", fn(**inputs))
    except _LOOKUP_ERRORS as exc:
        return ("err", type(exc).__name__, str(exc))


def _domains(table):
    """Observed value domain per input column, plus the two edge probes."""
    doms = {}
    for name in table.schema.input_names:
        seen = sorted(
            {row[name] for row in table.rows() if row[name] is not None},
            key=str,
        )
        doms[name] = seen + [None, _BOGUS]
    return doms


@pytest.fixture(scope="module")
def kernels(system):
    return {
        name: KernelTable.from_table(system.tables[name])
        for name in SIMULATED_TABLES
    }


@pytest.fixture(scope="module")
def domains(system):
    return {name: _domains(system.tables[name]) for name in SIMULATED_TABLES}


class TestLookupParity:
    """KernelTable answers every probe a step makes (``lookup_id`` and
    the partial ``_match``) exactly like ControllerTable —
    including which error class fires and its message string, because
    hole-violation details are pinned on those strings."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_full_probe_parity(self, system, kernels, domains, data):
        name = data.draw(st.sampled_from(SIMULATED_TABLES), label="table")
        table, kern = system.tables[name], kernels[name]
        inputs = {
            col: data.draw(st.sampled_from(dom), label=col)
            for col, dom in domains[name].items()
        }
        assert (_outcome(kern.lookup_id, **inputs)
                == _outcome(table.lookup_id, **inputs))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_partial_match_parity(self, system, kernels, domains, data):
        """``_match`` with any *subset* of input columns returns the
        same rowids and rows in the same (rowid) order."""
        name = data.draw(st.sampled_from(SIMULATED_TABLES), label="table")
        table, kern = system.tables[name], kernels[name]
        cols = data.draw(
            st.sets(st.sampled_from(table.schema.input_names)), label="cols")
        inputs = {
            col: data.draw(st.sampled_from(domains[name][col]), label=col)
            for col in sorted(cols)
        }
        assert kern._match(inputs) == table._match(inputs)

    def test_missing_input_parity(self, system, kernels):
        name = SIMULATED_TABLES[0]
        first = system.tables[name].schema.input_names[0]
        probe = {first: _BOGUS}  # every other input column missing
        assert (_outcome(kernels[name].lookup_id, **probe)
                == _outcome(system.tables[name].lookup_id, **probe))

    def test_unknown_column_parity(self, system, kernels):
        for name in SIMULATED_TABLES:
            assert (_outcome(kernels[name]._match,
                             inputs={"no_such_column": 1})
                    == _outcome(system.tables[name]._match,
                                inputs={"no_such_column": 1}))


class TestExpansionParity:
    """Per-state differential: both backends produce byte-identical
    successor sets, holes, and deadlock verdicts for every reached
    state of a clean exploration."""

    def test_every_reached_state_expands_identically(self, system,
                                                     explored_2n8):
        explorer, _ = explored_2n8
        cfg = explorer.config
        compiled = compile_system_kernels(system)
        args = (explorer.net, explorer.addrs, cfg.symmetry,
                explorer.quad_classes)
        for digest, state in explorer.states.items():
            a = _expand_state(state, system.tables, *args)
            b = _expand_state(state, compiled, *args)
            assert a == b, f"expansion diverged at {digest}"


def _run(system, **overrides):
    explorer = ReachabilityExplorer(system, ExploreConfig(**overrides))
    try:
        result = explorer.run()
        return result, set(explorer.states)
    finally:
        explorer.close()


def _run_sql(system, **overrides):
    with sql_lookups():
        return _run(system, **overrides)


class TestSqlOracle:
    """The oracle switches both consumers to SQL, even over a system
    whose kernels are already compiled: a parity suite comparing kernels
    with kernels would pass and prove nothing."""

    def test_stepped_d_table_switches_inside_the_block(self, system,
                                                      monkeypatch):
        import repro.explore.explorer as explorer_mod
        import repro.sim.system as sim_mod
        from repro.sim import figure2_scenario

        stepped = set()
        for name, module in (("explore", explorer_mod), ("sim", sim_mod)):
            def spy(state, move, tables, *args, _name=name,
                    _step=module.step):
                stepped.add((_name, type(tables["D"])))
                return _step(state, move, tables, *args)
            monkeypatch.setattr(module, "step", spy)

        def run_both():
            stepped.clear()
            _run(system, nodes=2, depth=2)
            figure2_scenario(system).run()
            return set(stepped)

        system.kernels()  # a filled memo must not hide the switch
        with sql_lookups():
            inside = run_both()
        outside = run_both()
        assert inside == {("explore", ControllerTable),
                          ("sim", ControllerTable)}
        assert outside == {("explore", KernelTable), ("sim", KernelTable)}


class TestMutantParity:
    """Whole-run differential on *broken* tables: each fault class
    perturbs the controllers differently (dropped rows become holes,
    duplicated rows become ambiguity, corrupt updates become coherence
    violations), and the compiled kernels must reproduce the oracle's
    verdicts — violations, traces, and digests — exactly."""

    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_fault_class_explores_identically(self, fault_class):
        mutated = build_system()
        engine = MutationEngine(mutated, seed=7, classes=[fault_class])
        engine.sample(1)[0].apply_to(mutated)
        res_c, states_c = _run(mutated, nodes=2, depth=6)
        res_i, states_i = _run_sql(mutated, nodes=2, depth=6)
        assert states_c == states_i
        assert res_c.to_dict() == res_i.to_dict()

    def test_clean_run_digest_sets_identical(self, system):
        res_c, states_c = _run(system, nodes=2, depth=8)
        res_i, states_i = _run_sql(system, nodes=2, depth=8)
        assert res_c.ok and res_i.ok
        assert states_c == states_i
        assert res_c.to_dict() == res_i.to_dict()


class TestWholeRunParity:
    """The ``--out`` report of a clean run is identical on kernels and on
    SQL lookups, at the pinned 2-node bound and through node
    canonicalization on 3 nodes (two of which share a quad)."""

    @pytest.mark.parametrize("bound, pinned", [
        (dict(nodes=2, depth=10), (407, 702)),
        (dict(nodes=3, lines=2, depth=7), (1765, 3288)),
    ], ids=["2n-d10", "3n-2l-d7"])
    def test_report_identical(self, system, bound, pinned):
        compiled, _ = _run(system, **bound)
        sql, _ = _run_sql(system, **bound)
        assert compiled.ok
        assert (compiled.states, compiled.transitions) == pinned
        assert compiled.to_dict() == sql.to_dict()


class TestFullSymmetry:
    """Full-node-permutation canonicalization: interchangeable non-home
    quads collapse into orbits the within-quad mode cannot reach."""

    def test_orbit_counts_at_three_quads(self, system):
        quad, _ = _run(system, nodes=3, depth=4, quads=3, symmetry="quad")
        full, _ = _run(system, nodes=3, depth=4, quads=3, symmetry="full")
        assert (quad.states, quad.transitions) == (97, 120)
        assert (full.states, full.transitions) == (53, 74)

    def test_full_canonical_form_invariant_under_quad_swap(self, system):
        cfg = ExploreConfig(nodes=3, depth=4, quads=3, symmetry="full")
        explorer = ReachabilityExplorer(system, cfg)
        try:
            explorer.run()
            classes = _quad_classes(cfg)
            (swappable,) = [c for c in classes if len(c) > 1]
            a, b = swappable[0], swappable[1]
            qmap = {q: q for cls in classes for q in cls}
            qmap[a], qmap[b] = b, a
            for digest, state in explorer.states.items():
                swapped = permute_quads(state, qmap)
                canon = canonicalize(swapped, "full", classes)
                assert hash_state(canon) == digest
        finally:
            explorer.close()
