#!/usr/bin/env python
"""Compare benchmark telemetry against the committed baselines.

Each benchmark module writes a run report to ``BENCH_<name>.json`` at
the repo root (see ``benchmarks/conftest.py``); those files are
committed, so they double as performance baselines.  This script

1. snapshots the committed ``BENCH_<name>.json`` for each module,
2. re-runs the module (``pytest benchmarks/bench_<name>.py
   --benchmark-only``), which rewrites the report, and
3. prints a trajectory table: span means, SQL query counts, and wall
   time, baseline vs current.

With ``--check`` the script exits non-zero when any compared span mean
or the module wall time regresses by more than ``--max-regression``
(default 2.0x), when a module in :data:`EXACT_QUERIES` issues a
different number of SQL statements than its baseline, or when a work
counter in :data:`EXACT_COUNTERS` differs from its baseline — this is
the CI smoke gate.  Spans whose baseline mean is under
:data:`GATE_FLOOR_SECONDS` are reported but never gated: at that scale
the numbers are scheduler noise, not regressions.  Gauges named ``*_per_sec`` are
rates and gate in the other direction: they fail when the current value
drops below baseline divided by the same factor.

Usage::

    python benchmarks/bench_compare.py                 # report only
    python benchmarks/bench_compare.py --check         # CI gate
    python benchmarks/bench_compare.py deadlock        # one module

After an intentional improvement, commit the regenerated
``BENCH_<name>.json`` files so the new numbers become the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_MODULES = ("invariants", "deadlock", "exploration", "generation",
                   "simulation")

#: modules whose ``sql.queries`` is the same on every run (each was run
#: twice back to back): a different count is a change in the work done,
#: gated exactly in either direction.
EXACT_QUERIES = DEFAULT_MODULES

#: per module, counters that count the work its fixed rounds do (the
#: exploration module reached the same states and transitions on two
#: back-to-back runs): a different value is a change in what the code
#: explores, gated exactly in either direction.
EXACT_COUNTERS = {
    "exploration": ("explore.states", "explore.transitions"),
}

#: spans faster than this in the baseline are noise, not signal: on a
#: 2-CPU host a 15.9 ms span mean read 33.5 ms (2.1x) on one run and
#: passed on the next with the code unchanged, and 4-18 ms spans swung
#: 0.7-1.44x between back-to-back runs.  Their work is gated exactly by
#: ``sql.queries``.
GATE_FLOOR_SECONDS = 0.05


def load_report(path: pathlib.Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def run_module(name: str) -> int:
    """Re-run one benchmark module; its conftest rewrites the report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest",
           str(REPO_ROOT / "benchmarks" / f"bench_{name}.py"),
           "--benchmark-only", "-q", "--no-header", "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    return proc.returncode


def fmt_seconds(s: float) -> str:
    return f"{s * 1000:9.2f}ms" if s < 1 else f"{s:9.3f}s "


def fmt_ratio(base: float, cur: float) -> str:
    if base <= 0:
        return "    n/a"
    r = cur / base
    marker = "  " if 0.8 <= r <= 1.25 else (" +" if r > 1 else " -")
    return f"{r:6.2f}x{marker}"


def compare_module(name: str, baseline: dict | None, current: dict,
                   max_regression: float) -> list[str]:
    """Print the trajectory table; return gate failure descriptions."""
    failures: list[str] = []
    print(f"\n== bench_{name} ==")
    if baseline is None:
        print("  (no committed baseline — reporting current run only)")

    rows: list[tuple[str, float | None, float, bool]] = []
    cur_spans = current.get("spans", {})
    base_spans = (baseline or {}).get("spans", {})
    for span in sorted(cur_spans):
        cur_mean = cur_spans[span]["mean_seconds"]
        base = base_spans.get(span)
        base_mean = base["mean_seconds"] if base else None
        gated = base_mean is not None and base_mean >= GATE_FLOOR_SECONDS
        rows.append((f"span {span} (mean)", base_mean, cur_mean, gated))

    base_wall = baseline.get("wall_seconds") if baseline else None
    rows.append(("wall time", base_wall, current.get("wall_seconds", 0.0),
                 base_wall is not None))

    print(f"  {'metric':44} {'baseline':>11} {'current':>11} {'ratio':>9}")
    for label, base_v, cur_v, gated in rows:
        base_s = fmt_seconds(base_v) if base_v is not None else "        --"
        print(f"  {label:44} {base_s:>11} {fmt_seconds(cur_v):>11}"
              f" {fmt_ratio(base_v or 0.0, cur_v):>9}")
        if gated and base_v and cur_v > base_v * max_regression:
            failures.append(
                f"bench_{name}: {label} regressed "
                f"{cur_v / base_v:.2f}x (baseline {base_v:.4f}s, "
                f"current {cur_v:.4f}s, limit {max_regression:.1f}x)")

    base_q = (baseline or {}).get("sql", {}).get("queries")
    cur_q = current.get("sql", {}).get("queries", 0)
    base_s = f"{base_q:>11}" if base_q is not None else "         --"
    ratio = fmt_ratio(float(base_q or 0), float(cur_q))
    print(f"  {'sql queries':44} {base_s} {cur_q:>11} {ratio:>9}")
    if name in EXACT_QUERIES and base_q is not None and cur_q != base_q:
        failures.append(
            f"bench_{name}: sql queries {base_q} -> {cur_q} (gated "
            f"exactly; commit the regenerated baseline if intended)")

    base_c = (baseline or {}).get("counters", {})
    cur_c = current.get("counters", {})
    for counter in EXACT_COUNTERS.get(name, ()):
        base_v = base_c.get(counter)
        cur_v = cur_c.get(counter, 0)
        base_s = f"{base_v:>11}" if base_v is not None else "         --"
        ratio = fmt_ratio(float(base_v or 0), float(cur_v))
        print(f"  {f'counter {counter}':44} {base_s} {cur_v:>11} {ratio:>9}")
        if base_v is not None and cur_v != base_v:
            failures.append(
                f"bench_{name}: counter {counter} {base_v} -> {cur_v} "
                f"(gated exactly; commit the regenerated baseline if "
                f"intended)")

    # Rate gauges: states/sec and friends, where *lower* is the
    # regression.  Gated symmetrically to the span rule.
    base_g = (baseline or {}).get("gauges", {})
    cur_g = current.get("gauges", {})
    for gauge in sorted(cur_g):
        if not gauge.endswith("_per_sec"):
            continue
        cur_v = float(cur_g[gauge])
        base_v = base_g.get(gauge)
        if base_v is not None:
            r = cur_v / float(base_v) if base_v else 0.0
            ratio = f"{r:6.2f}x" + ("  " if r >= 0.8 else " -")
            base_s = f"{float(base_v):>11,.0f}"
        else:
            ratio, base_s = "    n/a", "         --"
        print(f"  {f'rate {gauge}':44} {base_s} {cur_v:>11,.0f} {ratio:>9}")
        if base_v and cur_v < float(base_v) / max_regression:
            failures.append(
                f"bench_{name}: rate {gauge} regressed "
                f"{float(base_v) / cur_v:.2f}x (baseline "
                f"{float(base_v):,.0f}/s, current {cur_v:,.0f}/s, "
                f"limit {max_regression:.1f}x)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", default=list(DEFAULT_MODULES),
                        help="benchmark modules to run (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any gated metric regresses past "
                             "--max-regression or a gated query count "
                             "changes")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        metavar="FACTOR",
                        help="allowed slowdown factor vs baseline "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    all_failures: list[str] = []
    for name in args.modules:
        report_path = REPO_ROOT / f"BENCH_{name}.json"
        baseline = load_report(report_path)
        rc = run_module(name)
        if rc != 0:
            print(f"bench_{name}: benchmark run failed (exit {rc})",
                  file=sys.stderr)
            return rc
        current = load_report(report_path)
        if current is None:
            print(f"bench_{name}: no report produced at {report_path}",
                  file=sys.stderr)
            return 1
        all_failures += compare_module(name, baseline, current,
                                       args.max_regression)

    if all_failures:
        print("\nregressions past the gate:")
        for f in all_failures:
            print(f"  FAIL {f}")
        if args.check:
            return 1
    elif args.check:
        print(f"\nno gated metric regressed more than "
              f"{args.max_regression:.1f}x and no gated query count "
              f"changed — OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
