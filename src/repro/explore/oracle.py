"""The exploration oracle: ground truth for the detection matrix.

A mutant that slips past the invariants, the VCG analysis, and the
randomized simulation used to be scored "escaped" with nothing behind
the score.  :func:`oracle_check` re-scores such a survivor by running
the bounded exhaustive explorer over its mutated tables: if *any*
reachable state (up to the bound) violates coherence, hits a protocol
hole, disagrees with the directory at quiescence, or deadlocks, the
mutant is caught — by the oracle and by nothing earlier, which is
exactly a measured false negative of the paper's static checks.

The oracle runs inline on the mutated system, like every exploration.
``stop_on_violation`` makes the common
caught-early case cheap — one witness suffices, the explorer finishes
its current depth and stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..telemetry import get_tracer, span
from .explorer import ExplorationError, ExploreConfig, ReachabilityExplorer

__all__ = ["ORACLE_LAYER", "OracleVerdict", "oracle_check"]

#: the detection-layer name the campaign records for oracle catches.
ORACLE_LAYER = "oracle"


@dataclass(frozen=True)
class OracleVerdict:
    """What bounded exhaustive exploration concluded about a system."""

    caught: bool
    kind: str = ""        # violation kind of the first witness, or ""
    detail: str = ""
    states: int = 0
    transitions: int = 0
    depth: int = 0        # deepest level actually expanded
    #: length of the shortest witness trace (moves), -1 when none.
    trace_moves: int = -1

    @property
    def clean(self) -> bool:
        return not self.caught


def oracle_check(
    system,
    assignment: str = "v5d",
    depth: int = 8,
    nodes: int = 2,
    lines: int = 1,
    capacity: int = 1,
    stop_on_violation: bool = True,
) -> OracleVerdict:
    """Run the bounded explorer over ``system`` and condense the result.

    Raises :class:`ExplorationError` only for infrastructure failures —
    a mutant whose tables are broken enough to crash a lookup is a
    *detection* (kind ``hole``), not an error.

    The compiled kernels see every mutation: they are built from the
    already-mutated tables when the first transition fires, and channel
    reassignments live on the shared
    :class:`~repro.core.deadlock.ChannelAssignment` object.
    """
    config = ExploreConfig(
        nodes=nodes,
        depth=depth,
        lines=lines,
        assignment=assignment,
        capacity=capacity,
        stop_on_violation=stop_on_violation,
    )
    tracer = get_tracer()
    with span("explore.oracle", nodes=nodes, depth_bound=depth,
              assignment=assignment):
        explorer = ReachabilityExplorer(system, config)
        result = explorer.run()
    if tracer.enabled:
        tracer.incr("explore.oracle_runs")
        tracer.incr("explore.oracle_caught" if result.violations
                    else "explore.oracle_clean")
    if not result.violations:
        return OracleVerdict(
            caught=False,
            states=result.states,
            transitions=result.transitions,
            depth=result.depth,
        )
    first = result.violations[0]
    try:
        trace_moves = len(explorer.trace_to(first.digest))
    except ExplorationError:
        trace_moves = -1  # hole/deadlock digests are always reached states
    return OracleVerdict(
        caught=True,
        kind=first.kind,
        detail=(f"{first.kind} at depth {first.depth} "
                f"({trace_moves}-move witness): {first.detail}"),
        states=result.states,
        transitions=result.transitions,
        depth=result.depth,
        trace_moves=trace_moves,
    )
