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


# pass 0 at workload seeds 5 and 11, as printed by `outcome_digest.py all SEED
# 1`: any drift in a report's JSON or an error's text changes a digest.  Seed 5
# was pinned before integral coefficients became ints, seed 11 before a
# recombination draw became its k-1 rows, which changes the rows drawn after
# a failed attempt
FROZEN_DIGESTS = {
    5: {
        "batch-n5": "96 jobs, sha256 05c8029891ff1609f38ebe433b653f4d47dd5f32c0abde4c61a1f02a7b7586ad",
        "heavy-local": "13 jobs, sha256 3d0a8a60db32bb8811e604fbb409522e8420b6ace5a9aa7f30b82c7edf747ffc",
        "a1-saturation": "26 jobs, sha256 64ee32efcbb473fa0aa6a898292bd09d9668a378775353d45847cbb3e26baba1",
    },
    11: {
        "batch-n5": "96 jobs, sha256 68277c6d2ceb173b9ff7e8343b7d927adaa50f5fa292eca66d7e9dfa498e54c3",
        "heavy-local": "13 jobs, sha256 48e7e048657aec3fd686d9f8c33be520533828ee6fe569490d9253fb7b4f3ea0",
        "a1-saturation": "26 jobs, sha256 b852ce06b5e3ce1d6b2c03019eaeaba6de6e52ba306d12b51d42064184b3b9ee",
    },
}


def assert_digests_frozen(seed, tmp_path):
    proc = run_script("outcome_digest.py", "all", str(seed), "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} seed {seed} passes 0-0: {tail}" for name, tail in FROZEN_DIGESTS[seed].items()
    ]


def test_outcome_digests_are_frozen(tmp_path):
    assert_digests_frozen(5, tmp_path)


def test_outcome_digests_are_frozen_at_a_second_seed(tmp_path):
    assert_digests_frozen(11, tmp_path)
