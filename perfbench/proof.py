"""Run-to-run spread of the benchmark, raw against drift-adjusted.

    python3 perfbench/proof.py --runs 10 [--workload verify ...] [--seconds 30]

Runs ``run.py --trace 0`` once per seed (seeds 1..runs) on each workload
and prints, per end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the same spread of the
raw, unadjusted timings.  The spread must stay within each metric's
bound in ``BENCHMARK.json``.  Set-up does the same work on every
workload, so the ``setup_s`` medians of the workloads must also agree
within its bound.  Exits 1 if a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    setup_medians = {}
    print("| workload | metric | median | adjusted spread | raw spread "
          "| bound |")
    print("|---|---|---|---|---|---|")
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in report["raw"].items():
                values.setdefault(f"raw.{name}", []).append(value)
            values.setdefault("host.ref_ms", []).append(
                report["provenance"]["host.ref_ms"])
        for name, bound in bounds.items():
            adjusted = spread(values[name])
            raw = values.get(f"raw.{name}")
            raw_text = f"{spread(raw):.4f}" if raw else "-"
            ok &= adjusted <= bound
            print(f"| {workload} | {name} | {statistics.median(values[name]):.4g}"
                  f" | {adjusted:.4f} | {raw_text} | {bound} |")
        setup_medians[workload] = statistics.median(values["setup_s"])
        ref = values["host.ref_ms"]
        print(f"| {workload} | host.ref_ms | {statistics.median(ref):.4g} "
              f"| - | {spread(ref):.4f} | - |")
        sys.stdout.flush()
        (ROOT / "perfbench" / "out" / f"proof-{workload}.json").write_text(
            json.dumps(values, indent=1))
    low, high = min(setup_medians.values()), max(setup_medians.values())
    ok &= high <= low * (1 + bounds["setup_s"])
    medians = ", ".join(f"{w} {v:.4g}" for w, v in setup_medians.items())
    print(f"\nsetup_s medians: {medians}; highest/lowest {high / low:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
