"""End-to-end crash recovery: SIGKILL a journaled campaign mid-run,
resume it, and require the merged matrix to match an uninterrupted run.

This is the acceptance test for the checkpoint journal — it exercises
the real CLI in a subprocess so the kill is a genuine process death,
not a simulated exception.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
COUNT = 8


def mutate_cmd(*extra, quiet=True):
    return [sys.executable, "-m", "repro", "mutate",
            "--seed", "0", "--count", str(COUNT),
            "--workers", "1", *(("--quiet",) if quiet else ()), *extra]


def run_mutate(*extra, quiet=True):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(mutate_cmd(*extra, quiet=quiet), env=env,
                          cwd=REPO, capture_output=True, text=True,
                          timeout=300)


def journaled_units(path):
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for line in fh if '"type": "unit"' in line)


def _spooled_events(base):
    """Total spooled telemetry lines under ``base``'s worker spool
    directories (the victim runs with TMPDIR pointed there)."""
    total = 0
    for spool in base.glob("repro-spool-*/*.jsonl"):
        try:
            with open(spool) as fh:
                total += sum(1 for line in fh if line.strip())
        except OSError:
            continue
    return total


def _kill_children(pid):
    """SIGKILL every direct child of ``pid`` (via /proc); returns the
    pids actually killed."""
    killed = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            # field 4 is ppid; comm (field 2) may contain spaces, so
            # split after the closing paren.
            ppid = int(stat.rpartition(")")[2].split()[1])
            if ppid == pid:
                os.kill(int(entry), signal.SIGKILL)
                killed.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return killed


class TestKillAndResume:
    def test_sigkill_mid_campaign_then_resume_matches_full_run(
            self, tmp_path):
        full_path = tmp_path / "full.json"
        proc = run_mutate("--matrix-out", str(full_path))
        assert proc.returncode == 0, proc.stderr
        full = json.loads(full_path.read_text())

        journal = str(tmp_path / "campaign.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        victim = subprocess.Popen(
            mutate_cmd("--journal", journal), env=env, cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait for some — but not all — mutants to be journaled,
            # then kill without warning. -9 skips every cleanup path.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                done = journaled_units(journal)
                if done >= 2:
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.02)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()

        survived = journaled_units(journal)
        if survived >= COUNT:
            pytest.skip("campaign finished before the kill landed")
        assert survived >= 1, "journal never recorded a completed mutant"

        resumed_path = tmp_path / "resumed.json"
        proc = run_mutate("--resume", journal,
                          "--matrix-out", str(resumed_path), quiet=False)
        assert proc.returncode == 0, proc.stderr
        assert f"resumed from journal: {survived} mutants" in proc.stdout

        resumed = json.loads(resumed_path.read_text())
        assert resumed == full
        # After the resume the journal covers the whole campaign.
        assert journaled_units(journal) == COUNT

    def test_sigkilled_worker_leaves_attributed_partial_telemetry(
            self, tmp_path):
        """A process worker SIGKILLed mid-unit still contributes
        its partial spool to the merged trace, attributed to its unit."""
        if not os.path.isdir("/proc"):
            pytest.skip("needs /proc to find worker children")
        journal = str(tmp_path / "campaign.jsonl")
        trace = str(tmp_path / "events.jsonl")
        matrix_path = tmp_path / "matrix.json"
        # TMPDIR points the relay's spool directory into tmp_path so the
        # test can see the workers' spools fill up before it kills them.
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                   TMPDIR=str(tmp_path))
        victim = subprocess.Popen(
            mutate_cmd("--workers", "2",
                       "--journal", journal, "--trace-out", trace,
                       "--matrix-out", str(matrix_path)),
            env=env, cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait until a worker has demonstrably spooled telemetry for
            # its in-flight unit, then SIGKILL every worker child.
            deadline = time.monotonic() + 120
            killed = False
            while time.monotonic() < deadline and victim.poll() is None:
                if _spooled_events(tmp_path) >= 5:
                    killed = any(_kill_children(victim.pid))
                    break
                time.sleep(0.02)
            victim.wait(timeout=300)
        finally:
            if victim.poll() is None:
                victim.kill()
        if not killed or victim.returncode != 0:
            pytest.skip("campaign outran the worker kill")

        matrix = json.loads(matrix_path.read_text())
        crashed = [m["mutant_id"] for m in matrix["mutants"]
                   if m.get("outcome") == "crashed"]
        if not crashed:
            pytest.skip("every worker finished before the kill landed")

        with open(trace) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        partial = [e for e in events
                   if e.get("unit_id") in crashed
                   and e["type"] in ("span", "sql", "metric")]
        assert partial, ("the killed worker's spooled telemetry is "
                         "missing from the merged trace")
        assert all(str(e.get("worker_id", "")).startswith("proc-")
                   for e in partial)
        finished = [e for e in events if e["type"] == "unit.finished"
                    and e.get("unit_id") in crashed]
        assert finished and all(e["outcome"] == "crashed"
                                for e in finished)

    def test_resume_of_complete_journal_reruns_nothing(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        proc = run_mutate("--journal", journal)
        assert proc.returncode == 0, proc.stderr
        assert journaled_units(journal) == COUNT

        out_path = tmp_path / "matrix.json"
        proc = run_mutate("--resume", journal,
                          "--matrix-out", str(out_path), quiet=False)
        assert proc.returncode == 0, proc.stderr
        assert f"resumed from journal: {COUNT} mutants restored, " \
            "0 executed" in proc.stdout
        assert json.loads(out_path.read_text())["count"] == COUNT
