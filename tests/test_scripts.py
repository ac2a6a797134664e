"""The scripts in scripts/ run from a checkout without an installed package."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from memos import clear_process_memos

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
    assert "19 of 19 corpus checks passed" in proc.stdout


def test_family_sweep_runs_from_a_checkout(tmp_path):
    proc = run_script("family_sweep.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--max-order" in proc.stdout


def test_order_sweep_prints_its_summary(tmp_path):
    proc = run_script("order_sweep.py", "1", "2", "--budget", "200", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-3].startswith("seed 1: ") and "of 2 sheared germs checked" in lines[-3]
    assert lines[-2].startswith("head-first: ") and lines[-1].startswith("minors-first: ")


def test_order_sweep_trips_in_neither_order(tmp_path):
    """Sheared germs with a linear g reach the standard basis in the three
    free variables of the locus, where neither order of the top step's
    generators meets a blow-up under the default budget of 4000."""
    proc = run_script("order_sweep.py", "1", "60", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["head-first: 0 trips", "minors-first: 0 trips"]


def test_outcome_digest_repeats(tmp_path):
    runs = [run_script("outcome_digest.py", "batch-n5", "5", "1", cwd=tmp_path) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout.startswith("batch-n5 seed 5 passes 0-0: 96 jobs, sha256 ")
    assert runs[0].stdout == runs[1].stdout


def test_outcome_digest_runs_warm_as_it_would_cold(monkeypatch):
    """The script runs every job in one process, so a text met earlier
    reuses its parsed input and that input's seed-free invariants, a germ
    met earlier, up to constant factors, its restricted stage, and an
    invariant tuple the tables with their bouquet and JSON fragments.  Its
    digest of each workload is the one of jobs that each start with those
    memos empty.  batch-n5 runs 9 passes: its restricted sign patterns
    repeat every 8, so the last pass takes stages kept under other factors
    on g and H."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("outcome_digest", SCRIPTS / "outcome_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    workloads = {"batch-n5": (9, 864), "heavy-local": (1, 13), "a1-saturation": (1, 26)}
    warm = {name: script.digest(name, 5, passes) for name, (passes, _) in workloads.items()}
    outcome = script.outcome

    def cold_outcome(pkg, text, seed):
        clear_process_memos()
        return outcome(pkg, text, seed)

    monkeypatch.setattr(script, "outcome", cold_outcome)
    for name, (passes, count) in workloads.items():
        assert script.digest(name, 5, passes) == warm[name]
        assert warm[name][0] == count


# pass 0 at workload seeds 5, 11 and 41, as printed by `outcome_digest.py all
# SEED 1`: any drift in a report's JSON or an error's text changes a digest.
# Seed 5 was pinned before integral coefficients became ints, seed 11 before a
# recombination draw became its k-1 rows, which changes the rows drawn after
# a failed attempt, and seed 41 before the minors engine expanded only
# nonzero minors by nonzero entries
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
    41: {
        "batch-n5": "96 jobs, sha256 c44d0b2ce2bc0505520e986a33f91fdf7c804e9c3d7a88c8caf85f2869d0f355",
        "heavy-local": "13 jobs, sha256 d86d50e0e55508e0559c5af4a63657be20522adfea87cc16903cbba94a65b753",
        "a1-saturation": "26 jobs, sha256 d7b040aa51901253e4c5660e4653014da307cff9cd97c5da800c795bc4b7a7f9",
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


def test_outcome_digests_are_frozen_at_a_third_seed(tmp_path):
    assert_digests_frozen(41, tmp_path)


# passes 0-31 at workload seed 5, as printed by `outcome_digest.py all 5 32`
# before restricted stages were shared across constant factors: a stage kept
# for one pass and served to a later one must give the later job's own output
RUN_DIGESTS = {
    "batch-n5": "3072 jobs, sha256 40a79d04f2b27340a6981693d9a1c5e501e1a24e1f0a3943d84ce56601055463",
    "heavy-local": "416 jobs, sha256 2b3222eaa4f2ef4f2137d8d4749612e84214c7036eae2a322872a4168f3b3e40",
    "a1-saturation": "832 jobs, sha256 b82240bed8ac84edf82f69a05c1b20d8f690cbe757469e29536df3e0211e11aa",
}


def test_outcome_digests_over_a_whole_run_are_frozen(tmp_path):
    proc = run_script("outcome_digest.py", "all", "5", "32", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} seed 5 passes 0-31: {tail}" for name, tail in RUN_DIGESTS.items()
    ]
