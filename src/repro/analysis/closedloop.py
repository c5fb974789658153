"""The closed-loop report: repair outcomes + coverage deltas, CI-gated.

This module ties the two halves of the loop together into one committed
artifact (``BENCH_repair.json``):

* **repair** — the analyze-modify search from the paper's pre-fix V
  (Section 4 / Figure 4), with every applied fix re-verified through the
  invariant suite, one full deadlock analysis, and a bounded exploration
  of the repaired assignment;
* **coverage** — the guided-workload claim, measured: for each seed, a
  coverage-guided workload must exercise strictly more distinct
  controller-table rows than the fixed fig2+random workloads at the
  same op and step budget.

:func:`compare_repair_baseline` gates CI the way
:func:`repro.faults.campaign.compare_to_baseline` does for detection
matrices: the committed report's claims (repair succeeded, every fix
re-verified, guided beats fixed on every seed) must keep holding, and
the repaired assignment must never get more expensive.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..telemetry import get_tracer
from .coverage import CoverageRecorder, distinct_rows

__all__ = [
    "REPAIR_BENCH_SCHEMA",
    "guided_coverage_delta",
    "build_repair_report",
    "compare_repair_baseline",
]

#: schema tag of the closed-loop report (``BENCH_repair.json``).
REPAIR_BENCH_SCHEMA = "repro.closedloop/v1"


def guided_coverage_delta(system, seed: int = 0, n_ops: int = 40,
                          max_steps: int = 400,
                          assignment: str = "v5d",
                          epsilon: float = 0.2) -> dict:
    """Distinct-row coverage of the fixed workloads vs the guided one.

    The fixed side runs the Figure 2 scenario plus the seeded random
    workload (the exact pair the mutation campaign's simulation layer
    uses) under one merged recorder; the guided side gets the *same*
    ``n_ops`` op budget and ``max_steps`` step budget.  All three
    simulations are deterministic per seed, so the delta is a stable,
    committable number."""
    from ..sim import (ensure_recorder, figure2_scenario, guided_workload,
                       random_workload)

    merged = CoverageRecorder()
    for workload in (
        figure2_scenario(system, assignment=assignment),
        random_workload(system, assignment=assignment, seed=seed,
                        n_ops=n_ops),
    ):
        recorder = ensure_recorder(workload.simulator)
        workload.run(max_steps=max_steps)
        merged.merge(recorder)
    fixed = distinct_rows(merged)

    guided = guided_workload(system, assignment=assignment, seed=seed,
                             n_ops=n_ops, epsilon=epsilon,
                             ledger=CoverageRecorder())
    guided.run(max_steps=max_steps)
    guided_rows = distinct_rows(guided.simulator.recorder)
    get_tracer().incr("coverage.delta.measured")
    return {
        "seed": seed,
        "fixed_rows": fixed,
        "guided_rows": guided_rows,
        "delta": guided_rows - fixed,
    }


def build_repair_report(system=None, assignment: str = "v5",
                        rounds: int = 4, oracle_depth: int = 4,
                        seeds: Sequence[int] = (0, 1, 2),
                        n_ops: int = 40, max_steps: int = 400,
                        result=None) -> dict:
    """The full closed-loop report document.

    ``result`` may carry an already-searched (and re-verified)
    :class:`~repro.core.repair.RepairResult` so CLI callers do not run
    the search twice; otherwise the search runs here, from the paper's
    pre-fix ``assignment`` on a pristine system."""
    from ..core.repair import DeadlockRepairer

    own = system is None
    if own:
        from ..protocols.family import build_variant
        system = build_variant("mesi")
    try:
        if result is None:
            repairer = DeadlockRepairer.for_system(system, assignment)
            result = repairer.search(max_rounds=rounds)
            repairer.reverify(result, oracle_depth=oracle_depth)
        coverage = [guided_coverage_delta(system, seed=s, n_ops=n_ops,
                                          max_steps=max_steps)
                    for s in seeds]
    finally:
        if own:
            system.db.close()
    variant = system.spec.key
    doc = {
        "schema": REPAIR_BENCH_SCHEMA,
        "assignment": assignment,
        "rounds": rounds,
        "oracle_depth": oracle_depth,
        "repair": result.to_dict(),
        "coverage": {"n_ops": n_ops, "max_steps": max_steps,
                     "runs": coverage},
    }
    if variant != "mesi":
        doc["variant"] = variant
    return doc


def _repair_holds(doc: dict) -> bool:
    repair = doc.get("repair") or {}
    return bool(repair.get("success")
                and all(v.get("ok")
                        for v in repair.get("reverified", [])))


def compare_repair_baseline(current: dict,
                            baseline: dict) -> list[str]:
    """Closed-loop regressions of ``current`` vs a committed baseline.

    Returns human-readable failure strings (empty = no regression):
    the repair search must keep succeeding with every fix re-verified,
    the repaired V must not get more expensive than the committed one,
    and the guided workload must keep strictly beating the fixed
    workloads on every measured seed."""
    failures: list[str] = []
    if baseline.get("schema") != REPAIR_BENCH_SCHEMA:
        return [f"baseline has schema {baseline.get('schema')!r}, "
                f"expected {REPAIR_BENCH_SCHEMA!r}"]
    for key in ("assignment", "rounds", "oracle_depth", "variant"):
        if baseline.get(key) != current.get(key):
            failures.append(
                f"report parameter {key!r} differs from baseline "
                f"({current.get(key)!r} vs {baseline.get(key)!r}); "
                f"regenerate the baseline")
    base_cov, cur_cov = (d.get("coverage") or {} for d in
                         (baseline, current))
    for key in ("n_ops", "max_steps"):
        if base_cov.get(key) != cur_cov.get(key):
            failures.append(
                f"coverage budget {key!r} differs from baseline "
                f"({cur_cov.get(key)!r} vs {base_cov.get(key)!r}); "
                f"regenerate the baseline")
    if failures:
        return failures

    if _repair_holds(baseline) and not _repair_holds(current):
        repair = current.get("repair") or {}
        why = ("search did not converge" if not repair.get("success")
               else "a fix failed re-verification")
        failures.append(f"baseline repair succeeded with every fix "
                        f"re-verified; now: {why}")
    base_cost = (baseline.get("repair") or {}).get("total_cost")
    cur_cost = (current.get("repair") or {}).get("total_cost")
    if (base_cost is not None and cur_cost is not None
            and cur_cost > base_cost):
        failures.append(f"repaired assignment got more expensive: "
                        f"total_cost {base_cost} -> {cur_cost}")

    base_runs = {r.get("seed"): r for r in base_cov.get("runs", [])}
    for run in cur_cov.get("runs", []):
        seed = run.get("seed")
        if run.get("delta", 0) <= 0:
            failures.append(
                f"guided workload no longer beats the fixed workloads "
                f"at seed {seed} ({run.get('guided_rows')} vs "
                f"{run.get('fixed_rows')} distinct rows)")
        base_run = base_runs.get(seed)
        if base_run and run.get("guided_rows", 0) < base_run.get(
                "guided_rows", 0):
            failures.append(
                f"guided coverage regressed at seed {seed}: "
                f"{base_run.get('guided_rows')} -> "
                f"{run.get('guided_rows')} distinct rows; "
                f"regenerate the baseline if intentional")
    return failures
