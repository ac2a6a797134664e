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


def test_outcome_digest_repeats(tmp_path):
    runs = [run_script("outcome_digest.py", "batch-n5", "5", "1", cwd=tmp_path) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout.startswith("batch-n5 seed 5 passes 0-0: 96 jobs, sha256 ")
    assert runs[0].stdout == runs[1].stdout


# pass 0 at workload seed 5, as printed by `outcome_digest.py all 5 1` before
# integral coefficients became ints: any drift in a report's JSON or an
# error's text changes a digest
FROZEN_DIGESTS = {
    "batch-n5": "96 jobs, sha256 05c8029891ff1609f38ebe433b653f4d47dd5f32c0abde4c61a1f02a7b7586ad",
    "heavy-local": "13 jobs, sha256 3d0a8a60db32bb8811e604fbb409522e8420b6ace5a9aa7f30b82c7edf747ffc",
    "a1-saturation": "26 jobs, sha256 64ee32efcbb473fa0aa6a898292bd09d9668a378775353d45847cbb3e26baba1",
}


def test_outcome_digests_are_frozen(tmp_path):
    proc = run_script("outcome_digest.py", "all", "5", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} seed 5 passes 0-0: {tail}" for name, tail in FROZEN_DIGESTS.items()
    ]
