"""Property battery for the repair search (differential, via Hypothesis).

Three laws, checked against randomly perturbed channel assignments on
both the toy ping-pong system and the full generated ASURA tables
(the parity of the search's incremental candidate scorer with the full
engines is checked last, on every family member):

1. **parity** — every assignment the search declares deadlock-free is
   re-verified free by the row-at-a-time parity oracle of
   :mod:`.deadlock_oracle` (the SQL engine proposed it, the independent
   implementation must agree);
2. **monotone cost** — the applied fix costs never decrease across
   rounds (the search escalates, it never sneaks a cheaper fix in after
   an expensive one, which would mean the cheap one was missed earlier);
3. **no collateral damage** — a fix never makes a channel cyclic that
   was clean before its round (repairs strictly shrink the set of
   deadlocking channels).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    CandidateScorer,
    ChannelAssignment,
    DeadlockAnalyzer,
    VCAssignment,
)
from repro.core.repair import DeadlockRepairer, _cyclic_channels
from repro.protocols.family import SPECS, build_variant

from . import deadlock_oracle
from .test_repair import toy_specs

TOY_CHANNELS = ("VC1", "VC2", "VC3")


@pytest.fixture(scope="module")
def toy_db():
    with ProtocolDatabase() as db:
        yield db


@pytest.fixture(scope="module")
def repair_system():
    """A module-private ASURA system: repair analyses write derived
    dependency tables, which must not land in the session fixture."""
    from repro.protocols.asura import build_system
    return build_system()


def _python_cycles(db, specs, assignment, table_name):
    analysis = deadlock_oracle.analyze(db, specs, assignment,
                                       table_name=table_name)
    return [tuple(c) for c in analysis.cycles()]


def _check_laws(db, specs, base, table_name):
    result = DeadlockRepairer(db, specs, base).search(max_rounds=4)

    costs = [f.cost for f in result.applied]
    assert costs == sorted(costs), f"fix costs decreased: {costs}"

    if result.success:
        assert _python_cycles(db, specs, result.final_assignment,
                              table_name) == []

    cyclic_before = _cyclic_channels(
        [list(c) for c in result.initial_cycles])
    for fix in result.applied:
        analysis = DeadlockAnalyzer(db, specs, fix.assignment).analyze(
            table_name=table_name)
        cyclic_after = _cyclic_channels(
            [list(c) for c in analysis.cycles()])
        assert cyclic_after <= cyclic_before, (
            f"fix {fix.description!r} broke previously-clean "
            f"channel(s) {sorted(cyclic_after - cyclic_before)}")
        cyclic_before = cyclic_after
    return result


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vcs=st.tuples(st.sampled_from(TOY_CHANNELS),
                     st.sampled_from(TOY_CHANNELS)),
       dedicate=st.sampled_from((None,) + TOY_CHANNELS))
def test_toy_repair_laws(toy_db, vcs, dedicate):
    specs, _ = toy_specs(toy_db)
    base = ChannelAssignment("mut", [
        VCAssignment("fwd", "home", "remote", vcs[0]),
        VCAssignment("resp", "remote", "home", vcs[1]),
    ], dedicated=(dedicate,) if dedicate else ())
    _check_laws(toy_db, specs, base, "pdt_prop_toy")


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_asura_repair_laws_on_mutated_v(repair_system, data):
    """Reassign 1-2 of v5d's entries to a random channel (the campaign's
    ``reassign-channel`` fault class) and run the laws on the result."""
    system = repair_system
    base = system.channel_assignments["v5d"]
    entries = list(base.assignments)
    channels = sorted({e.channel for e in entries})
    n_mut = data.draw(st.integers(1, 2), label="mutations")
    for _ in range(n_mut):
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        vc = data.draw(st.sampled_from(channels), label="channel")
        e = entries[i]
        entries[i] = VCAssignment(e.message, e.src, e.dst, vc)
    mutated = ChannelAssignment("prop-mut", entries,
                                dedicated=base.dedicated)
    specs = system.deadlock_specs()
    result = _check_laws(system.db, specs, mutated, "pdt_prop_asura")
    # The perturbation class is the one the campaign repairs: the search
    # must converge on it (matching the 7/7 campaign repair rate).
    assert result.success


class _RecordingRepairer(DeadlockRepairer):
    """A repairer that keeps every candidate its search generates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.generated = []

    def candidates(self, assignment, cycles):
        fixes = super().candidates(assignment, cycles)
        self.generated.extend(fixes)
        return fixes


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_scorer_matches_full_engines_on_every_candidate(variant):
    """The search scores candidates incrementally.  On every candidate a
    v4 or v5 search generates, in every round, the scorer's cycles equal
    a full analysis by the SQL engine; on every candidate of the v5
    (Figure 4) search they also equal the Python oracle's.  The oracle
    does not run on all ~1,900 candidates because that takes minutes;
    the engine parity suites hold it to the SQL engine row for row."""
    system = build_variant(variant)
    try:
        specs = system.deadlock_specs()
        generated = []
        for assignment in ("v4", "v5"):
            repairer = _RecordingRepairer.for_system(system, assignment)
            repairer.search(max_rounds=4)
            engines = ((DeadlockAnalyzer, deadlock_oracle.RowAtATimeAnalyzer)
                       if assignment == "v5" else (DeadlockAnalyzer,))
            generated += [(fix, engines) for fix in repairer.generated]
        assert generated
        scorer = CandidateScorer(system.db, specs)
        try:
            for fix, engines in generated:
                scored = scorer.cycles(fix.assignment)
                for engine in engines:
                    full = engine(system.db, specs, fix.assignment).analyze(
                        table_name="pdt_scorer_parity").cycles()
                    assert scored == full, (fix.description, engine)
        finally:
            scorer.close()
    finally:
        system.db.close()
