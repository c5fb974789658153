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
            *(("--quiet",) if quiet else ()), *extra]


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
