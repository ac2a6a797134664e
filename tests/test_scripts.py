"""The scripts in scripts/ run from a checkout without an installed package."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env=env,
    )


def test_run_corpus_runs_from_a_checkout(tmp_path):
    proc = run_script("run_corpus.py", "--seeds", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "17 of 17 corpus checks passed" in proc.stdout


def test_family_sweep_runs_from_a_checkout(tmp_path):
    proc = run_script("family_sweep.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--max-order" in proc.stdout
