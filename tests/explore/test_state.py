"""Property tests for state canonicalization and hashing.

The seen-set is only sound if (a) canonical forms are invariant under
within-quad node relabelling — otherwise symmetric interleavings explode
the state count — and (b) digests are process-stable — otherwise a run
resumed under a different ``PYTHONHASHSEED`` would not recognize the
states its journal names, and ``--out`` reports would differ between
processes.  Both properties are checked over *real* reached states (drawn
from a 3-node exploration, where quad 0 holds two interchangeable
nodes), not synthetic ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.explore import (
    ExploreConfig,
    ReachabilityExplorer,
    canonicalize,
    decode_state,
    encode_state,
    hash_state,
    permute_state,
)
from repro.explore.state import node_groups, orbits_trivial, state_key


def _reached_states():
    """Canonical states of a 3-node depth-5 exploration, cached across
    Hypothesis examples (module-level: strategies cannot use fixtures)."""
    if not hasattr(_reached_states, "_cache"):
        from repro.protocols.asura import build_system
        explorer = ReachabilityExplorer(
            build_system(), ExploreConfig(nodes=3, depth=5))
        explorer.run()
        _reached_states._cache = list(explorer.states.values())
    return _reached_states._cache


@st.composite
def state_and_permutation(draw):
    """A reached canonical state plus a within-quad node relabelling."""
    state = draw(st.sampled_from(_reached_states()))
    mapping: dict[str, str] = {}
    for group in node_groups(state):
        mapping.update(zip(group, draw(st.permutations(group))))
    return state, mapping


class TestCanonicalizationSoundness:
    @settings(max_examples=150, deadline=None)
    @given(sp=state_and_permutation())
    def test_canonical_form_invariant_under_relabelling(self, sp):
        state, mapping = sp
        assert canonicalize(permute_state(state, mapping)) == \
            canonicalize(state)

    @settings(max_examples=100, deadline=None)
    @given(sp=state_and_permutation())
    def test_canonicalize_is_idempotent(self, sp):
        state, _ = sp
        canonical = canonicalize(state)
        assert canonicalize(canonical) == canonical

    @settings(max_examples=100, deadline=None)
    @given(sp=state_and_permutation())
    def test_permutation_preserves_structure(self, sp):
        """Relabelling permutes node identities but never invents or
        drops content: per-node payloads and channel loads match."""
        state, mapping = sp
        permuted = permute_state(state, mapping)
        # Node payloads (cache, registers, queue) form the same multiset.
        original = sorted(payload for _, *payload in state[2])
        renamed = sorted(payload for _, *payload in permuted[2])
        assert original == renamed
        # Channel occupancy per queue is untouched.
        assert [(key, len(envs)) for key, envs in state[0]] == \
            [(key, len(envs)) for key, envs in permuted[0]]

    @settings(max_examples=100, deadline=None)
    @given(sp=state_and_permutation())
    def test_identity_permutation_is_noop(self, sp):
        state, _ = sp
        identity = {n: n for g in node_groups(state) for n in g}
        assert permute_state(state, identity) == state


class TestEncodingRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(sp=state_and_permutation())
    def test_encode_decode_round_trip(self, sp):
        state, _ = sp
        through_json = json.loads(json.dumps(encode_state(state)))
        assert decode_state(through_json) == state

    @settings(max_examples=100, deadline=None)
    @given(sp=state_and_permutation())
    def test_hash_is_injective_on_the_key(self, sp):
        state, mapping = sp
        permuted = permute_state(state, mapping)
        same = state_key(permuted) == state_key(state)
        assert (hash_state(permuted) == hash_state(state)) == same


class TestCrossProcessHashStability:
    """The deduplication digests must not depend on ``PYTHONHASHSEED``."""

    _SNIPPET = """
import sys
from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.protocols.asura import build_system

explorer = ReachabilityExplorer(
    build_system(), ExploreConfig(nodes=int(sys.argv[1]), depth=4))
explorer.run()
print("\\n".join(sorted(explorer.states)))
"""

    def _digests(self, hashseed: str, nodes: int) -> list[str]:
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.getcwd(), "src"),
                        env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", self._SNIPPET, str(nodes)],
            capture_output=True, text=True, env=env, check=True, timeout=300)
        return out.stdout.split()

    @pytest.mark.parametrize("nodes", [2, 3, 5])
    def test_digest_sets_agree_across_hash_seeds(self, nodes):
        # At 3 and 5 nodes quad 0 holds more than two interchangeable
        # nodes, so ``node_groups`` permutes groups of three and more: a
        # digest that leaked dict or hash order would differ between
        # these two subprocesses.
        a = self._digests("0", nodes)
        b = self._digests("424242", nodes)
        assert a and a == b

    def test_out_report_identical_across_hash_seeds(self, tmp_path):
        """Successors deduplicate on state tuples, whose hashes are
        seeded: the ``--out`` report must not show it."""
        reports = []
        for hashseed in ("0", "1"):
            out = tmp_path / f"seed{hashseed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.getcwd(), "src"),
                            env.get("PYTHONPATH")) if p)
            subprocess.run(
                [sys.executable, "-m", "repro", "explore", "--nodes", "2",
                 "--depth", "10", "--out", str(out), "--quiet"],
                capture_output=True, env=env, check=True, timeout=300)
            reports.append(out.read_bytes())
        assert reports[0] and reports[0] == reports[1]

    def test_in_process_digests_match_subprocess(self, explored_3n5):
        explorer, _ = explored_3n5
        here = sorted(d for d, s in explorer.states.items()
                      if len(explorer.trace_to(d)) <= 4)
        there = self._digests("7", 3)
        assert here == sorted(there)


class TestNodeGroups:
    """``node_groups`` groups interchangeable nodes by quad."""

    def test_grouping_is_by_quad(self):
        state = _reached_states()[0]
        by_quad: dict = {}
        for nid, *_ in state[2]:
            by_quad.setdefault(nid.split(":")[1].split(".")[0],
                               []).append(nid)
        assert node_groups(state) == \
            [sorted(g) for _, g in sorted(by_quad.items())]


class TestOrbitsTrivial:
    """The explorer decides once per configuration whether any orbit has
    two members; when none does, canonicalization is skipped."""

    def test_agrees_with_canonicalize_on_reached_states(self):
        states = _reached_states()
        nids = [nid for nid, *_ in states[0][2]]
        assert not orbits_trivial(nids)            # quad 0 holds two nodes
        assert orbits_trivial(nids, "off")
        assert all(canonicalize(s, "off") == s for s in states[:25])

    def test_full_symmetry_counts_quad_classes(self):
        nids = ["node:0.0", "node:1.0", "node:2.0"]
        assert orbits_trivial(nids, "quad")
        assert orbits_trivial(nids, "full", quad_classes=((1,), (2,)))
        assert not orbits_trivial(nids, "full", quad_classes=((1, 2),))

    @pytest.mark.parametrize("nodes,expected", [(2, "off"), (3, True)])
    def test_explorer_decides_per_configuration(self, nodes, expected):
        from repro.protocols.asura import build_system
        explorer = ReachabilityExplorer(
            build_system(), ExploreConfig(nodes=nodes, depth=1))
        assert explorer.symmetry == expected
