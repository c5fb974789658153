"""Benchmark of the paper's verification loop, end to end and by layer.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``ops.py``): ``verify``, ``repair`` and ``campaign``.  One
single-threaded client runs ops back to back (a closed loop) until
``--seconds`` have passed; every op runs on a fresh clone of the set-up
snapshot and must reach its committed verdict.

Every timing is drift-adjusted: each op is bracketed by samples of the
stdlib-only reference kernel in ``reference.py`` and reported as
``raw * R0_MS[threads] / reference[threads]``, read for the number of
threads the workload mostly runs on.  A cold set-up runs in a fresh
interpreter, which samples the kernel itself, around the set-up.  Raw
values are kept as per-layer metrics.

``--trace 0`` reports the end-to-end metrics: the median adjusted op time,
the median adjusted cold set-up (import, generation, snapshot) of
several fresh interpreters, and the peak resident memory.  ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics:
self times from the benchmark's own spans around each public call, the
work counts, the raw timings and the tracing overhead.  Spans and a run
report land in ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run report (provenance, samples, raw timings).  The exit code
is 1 when any op missed its verdict, 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from reference import R0_MS, Reference, factor
from spans import NoSpans, Spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: cold set-ups per run; their adjusted median is ``setup_s``.
SETUP_SAMPLES = 7

#: span name -> per-layer metric of its self time.
SPAN_METRICS = {
    "core.clone": "core.clone_ms",
    "core.invariants": "core.invariants.ms",
    "core.deadlock": "core.deadlock.ms",
    "core.mapping": "core.mapping.ms",
    "sim": "sim.ms",
    "explore": "explore.ms",
    "core.repair.search": "core.repair.search_ms",
    "core.repair.reverify": "core.repair.reverify_ms",
    "faults.campaign": "faults.campaign_ms",
    "op": "unattributed_ms",
}

#: work counts; a workload reports those of the layers it runs, 0 else.
COUNT_METRICS = (
    "explore.states", "explore.transitions", "sim.steps", "sim.messages",
    "core.invariants.checks", "core.deadlock.calls",
    "core.deadlock.dependency_rows", "core.deadlock.cycles",
    "core.repair.evaluated", "core.repair.tables_leaked", "faults.mutants",
    "faults.detected.invariants", "faults.detected.deadlock",
    "faults.detected.simulation", "faults.detected.escaped",
)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed,
            "r0_ms": R0_MS}


def leftover_work(base_threads: int) -> list[str]:
    """What an op left running; it would slow the next reference sample
    and flatter the adjusted time."""
    problems = []
    extra = threading.active_count() - base_threads
    if extra > 0:
        problems.append(f"op left {extra} thread(s) running")
    children = multiprocessing.active_children()
    if children:
        problems.append(f"op left {len(children)} child process(es)")
    return problems


def measure_setup() -> list[dict]:
    """Cold set-ups in fresh interpreters.  Each probe samples the
    reference kernel in its own interpreter, around the set-up, and so
    brings its own drift factor (see ``setup_probe.py``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        probe["total_s"] = (probe["import_s"] + probe["build_s"]
                            + probe["snapshot_s"])
        samples.append(probe)
    return samples


def run_ops(workload, snapshot: bytes, ref: Reference, seconds: float,
            trace: bool, spans: Spans) -> list[dict]:
    """A warm-up op, then ops back to back until ``seconds`` have
    passed; with ``trace`` every second op is traced.  The warm-up op
    pays for lazy imports and first-touch memory, and is checked but not
    timed."""
    base_threads = threading.active_count()
    records: list[dict] = []
    first_outcome = None
    before = ref.sample()
    deadline = None
    min_ops = 3 if trace else 2
    while len(records) < min_ops or time.perf_counter() < deadline:
        op_id = len(records)
        traced = trace and op_id > 0 and op_id % 2 == 0
        tracer = spans if traced else NoSpans
        spans.op_id = op_id
        outcome, timings, problems = None, {}, []
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                outcome, timings = workload.run(snapshot, tracer)
        except Exception as exc:  # the run goes on and reports the failure
            traceback.print_exc()
            problems.append(f"raised {type(exc).__name__}: {exc}")
        raw = time.perf_counter() - t0
        if outcome is not None:
            problems += workload.check(outcome)
            if first_outcome is None:
                first_outcome = outcome
            elif outcome != first_outcome:
                problems.append("work counts differ from the first op's")
        problems += leftover_work(base_threads)
        after = ref.sample(raw)
        factors = {k: factor(before, after, k) for k in after}
        before = after
        for problem in problems:
            print(f"perfbench: op {op_id}: {problem}", file=sys.stderr)
        records.append({"id": op_id, "warmup": deadline is None,
                        "traced": traced, "raw_s": raw,
                        "factor": factors[workload.threads],
                        "factors": factors,
                        "ref_ms": after[workload.threads], "outcome": outcome,
                        "timings": timings, "problems": problems})
        if deadline is None:
            deadline = time.perf_counter() + seconds
    return records


def layer_metrics(workload, good: list[dict], untraced_p50: float,
                  setup: list[dict], spans: Spans, refs: list[float],
                  raw_op_p50: float, raw_setup: float) -> tuple[dict, list]:
    """The per-layer metrics of the traced ops, plus any op whose self
    times failed to add up to its duration."""
    problems = []
    traced = [r for r in good if r["traced"]]
    totals = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    search_ms = 0.0  # the whole search, deadlock analyses included
    for r in traced:
        self_times = spans.self_times(r["id"])
        op_spans = [s for s in spans.records if s["op"] == r["id"]]
        root = next(s for s in op_spans if s["parent"] is None)
        if abs(sum(self_times.values())
               - (root["end"] - root["start"])) > 1e-6:
            problems.append(f"op {r['id']}: self times do not add up")
        for name, seconds in self_times.items():
            totals[SPAN_METRICS[name]] += (1000.0 * seconds * r["factor"]
                                           / len(traced))
        search_ms += sum(1000.0 * (s["end"] - s["start"]) * r["factor"]
                         / len(traced) for s in op_spans
                         if s["name"] == "core.repair.search")
    metrics = dict(totals)
    metrics.update(dict.fromkeys(COUNT_METRICS, 0))
    metrics.update(workload.layer_counts(good[0]["outcome"]))
    for probe_key, name in (("import_s", "import_ms"),
                            ("build_s", "protocols.build_ms"),
                            ("snapshot_s", "core.snapshot_ms")):
        metrics[name] = 1000.0 * statistics.median(
            p[probe_key] * p["factor"] for p in setup)
    explore_ms = metrics["explore.ms"]
    metrics["explore.states_per_s"] = (
        1000.0 * metrics["explore.states"] / explore_ms if explore_ms else 0)
    evaluated = metrics["core.repair.evaluated"]
    metrics["core.repair.ms_per_candidate"] = (
        search_ms / evaluated if evaluated else 0)
    mutant = [1000.0 * r["timings"]["mutant_p50_s"] * r["factor"]
              for r in good if "mutant_p50_s" in r["timings"]]
    metrics["faults.mutant_p50_ms"] = statistics.median(mutant) if mutant else 0
    metrics["host.ref_ms"] = statistics.median(refs)
    metrics["host.raw_op_p50_ms"] = 1000.0 * raw_op_p50
    metrics["host.raw_setup_s"] = raw_setup
    if traced:
        traced_p50 = statistics.median(r["raw_s"] * r["factor"]
                                       for r in traced)
        metrics["tracing.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50
                                                   - 1)
    else:
        metrics["tracing.overhead_pct"] = 0.0
    return metrics, problems


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for one
    mode: end-to-end untraced, per-layer traced."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run(args, ops, ref: Reference) -> int:
    origin = time.perf_counter()
    workload = ops.WORKLOADS[args.workload](ROOT, args.seed)
    setup = measure_setup()
    system = ops.build_system()
    snapshot = system.db.snapshot()
    tables = ops.table_names(system.db)
    spans = Spans()
    records = run_ops(workload, snapshot, ref, args.seconds,
                      bool(args.trace), spans)
    problems = []
    if ops.table_names(system.db) != tables or \
            system.db.snapshot() != snapshot:
        problems.append("the set-up database changed during the run")
    system.db.close()

    failed = sum(1 for r in records if r["problems"])
    timed = [r for r in records if not r["warmup"]]
    good = [r for r in timed if not r["problems"]] or timed
    untraced = [r for r in good if not r["traced"]]
    op_p50 = statistics.median(r["raw_s"] * r["factor"] for r in untraced)
    raw_op_p50 = statistics.median(r["raw_s"] for r in untraced)
    setup_s = statistics.median(p["total_s"] * p["factor"] for p in setup)
    raw_setup = statistics.median(p["total_s"] for p in setup)
    refs = [r["ref_ms"] for r in records]
    if args.trace and good[0]["outcome"] is not None:
        values, trace_problems = layer_metrics(
            workload, good, op_p50, setup, spans, refs, raw_op_p50,
            raw_setup)
        problems += trace_problems
    else:
        values = {"op_p50_ms": 1000.0 * op_p50, "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    units = declared_metrics(args.trace)
    if values.keys() != units.keys():
        problems.append(f"metrics {sorted(values.keys() ^ units.keys())} "
                        f"are not both reported and declared")
    metrics = {k: {"value": v, "unit": units.get(k, "?")}
               for k, v in values.items()}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    report = {
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(args.seed)
        | {"host.ref_ms": statistics.median(refs)},
        "ops": len(records), "op_samples": len(untraced),
        "setup_samples": len(setup),
        "adjusted": {"op_p50_ms": 1000.0 * op_p50, "setup_s": setup_s},
        "raw": {"op_p50_ms": 1000.0 * raw_op_p50, "setup_s": raw_setup},
        "ops_detail": [{k: r[k] for k in ("id", "warmup", "traced", "raw_s",
                                          "factor", "factors", "ref_ms",
                                          "problems")}
                       for r in records],
        "setup_detail": setup,
        "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.report.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        spans.write(OUT / f"{stem}.spans.jsonl", origin)
    correct = not failed and not problems
    print(json.dumps({k: report[k] for k in (
        "workload", "provenance", "op_samples", "setup_samples",
        "adjusted", "raw", "problems")}))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    missing = [p for p in ("BENCHMARK.json", "src/repro/__init__.py",
                           "BENCH_repair.json", "BENCH_mutation.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: incomplete checkout, missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ops  # imports repro, so only once src/ is on the path
    args = parse_args(argv, ops.WORKLOADS)
    ref = Reference()
    try:
        return run(args, ops, ref)
    finally:
        ref.close()


if __name__ == "__main__":
    sys.exit(main())
