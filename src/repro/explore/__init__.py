"""Bounded exhaustive reachability exploration — the ground-truth oracle.

The paper's claim is that static SQL checks catch protocol errors
*early*; the mutation campaign (``repro mutate``) measures how often.
But a mutant that slips past the invariants, the VCG analysis, *and* the
randomized simulation was previously scored "not detected" with no
ground truth behind the score.  This package supplies that ground truth:
a bounded-depth breadth-first enumeration of every system state a small
configuration can reach, executing the same generated controller-table
rows the simulator does, with coherence invariants evaluated at every
state and quiescent-deadlock detection at every expansion.

* :mod:`repro.explore.state` — canonical, permutation-reduced state
  encoding with process-stable hashing;
* :mod:`repro.explore.explorer` — the depth-synchronized BFS engine
  (checkpoint journaling, counterexample trace extraction);
* :mod:`repro.explore.oracle` — the campaign adapter that re-scores
  surviving mutants (``run_campaign --oracle explore``), turning the
  detection matrix into a measured false-negative column.

See ``docs/EXPLORATION.md``.
"""

from .explorer import (
    ExplorationError,
    ExploreConfig,
    ExploreResult,
    ReachabilityExplorer,
    SUMMARY_TABLE,
    explore_system,
)
from .oracle import OracleVerdict, oracle_check
from .state import (
    canonicalize,
    decode_state,
    encode_state,
    hash_state,
    permute_quads,
    permute_state,
    symmetry_mode,
)

__all__ = [
    "ExplorationError",
    "ExploreConfig",
    "ExploreResult",
    "ReachabilityExplorer",
    "SUMMARY_TABLE",
    "explore_system",
    "OracleVerdict",
    "oracle_check",
    "canonicalize",
    "decode_state",
    "encode_state",
    "hash_state",
    "permute_quads",
    "permute_state",
    "symmetry_mode",
]
