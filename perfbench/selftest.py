"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is reported with its unit and that no
job fails.  Then checks that no pass of a run repeats a job of an earlier
pass, and that the harness notices what it is meant to notice: a wrong
invariant, a missing expected error, changed bytes on a repeat in a fresh
process, a job that disagrees with its group, a wrapper left installed, and
a checkout without the package source.  Prints one line per check and exits
non-zero if any check failed.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"[{'pass' if cond else 'FAIL'}] {what}")
    if not cond:
        problems.append(what)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )


def check_tiny_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(
                ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny",
            )
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0 or not proc.stdout.strip():
                expect(False, f"{what} exits 0 with a result (stderr: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{what}: result has exactly the four keys",
            )
            expect(
                result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                f"{what}: fail_frac is 0 ({result['failed']}/{result['attempted']})",
            )
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{what}: every {section} metric present with its unit")
            expect(
                all(
                    isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                    for v in result["metrics"].values()
                ),
                f"{what}: every value is a finite number",
            )
            if trace:
                shares = sum(
                    v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")
                )
                expect(abs(shares - 1.0) < 1e-6, f"{what}: the layers' self shares sum to 1")


def check_fresh_passes() -> None:
    """Every pass has the same slots, and no (job text, Milnor seed) recurs
    across the passes of a run; in heavy-local no job text recurs."""
    sys.path.insert(0, str(HERE))
    import workloads

    for workload, seed, tiny in itertools.product(workloads.WORKLOADS, (7, 1004), (False, True)):
        slots = [s.slot for s in workloads.build(workload, seed, 0, tiny)]
        seen, texts, same_slots = set(), set(), True
        for index in range(workloads.MAX_PASSES):
            specs = workloads.build(workload, seed, index, tiny)
            same_slots &= [s.slot for s in specs] == slots
            seen |= {(s.text, s.seed) for s in specs}
            texts |= {s.text for s in specs}
        jobs = len(slots) * workloads.MAX_PASSES
        what = f"{workload} seed {seed}{' tiny' if tiny else ''}"
        expect(same_slots, f"{what}: every pass has the same slots in the same order")
        expect(len(seen) == jobs, f"{what}: no (job text, seed) recurs across passes")
        if workload == "heavy-local":
            expect(len(texts) == jobs, f"{what}: no job text recurs across passes")


def check_harness() -> None:
    """In-process: the checks catch deliberately wrong outcomes."""
    sys.path.insert(0, str(HERE))
    import checks
    import run
    import tracer
    import workloads

    sys.path.insert(0, str(run.SRC))
    pkg = run.import_package()
    spec = next(s for s in workloads.build("batch-n5", 7, 0, tiny=True) if not s.oracle.error)
    outcome = checks.outcome(pkg, spec.text, spec.seed)
    expect(checks.against_oracle(spec, outcome) is None, "a correct outcome passes its oracle")

    doc = json.loads(outcome[1])
    doc["invariants"]["mu1"] += 1
    wrong = (checks.OK, json.dumps(doc))
    expect(checks.against_oracle(spec, wrong) is not None, "an off-by-one mu1 is caught")

    must_fail = dataclasses.replace(spec, oracle=workloads.FAILS)
    expect(
        checks.against_oracle(must_fail, outcome) is not None,
        "a missing expected ComputationError is caught",
    )

    runner = run.Runner(pkg, "batch-n5", 7, tiny=True)
    runner.run_pass()
    runner.repeat_sample()
    expect(runner.repeats >= 2 and not runner.repeat_failed, "repeats in a fresh process agree")
    for job_id, (kind, payload) in runner.outcomes.items():
        runner.outcomes[job_id] = (kind, payload + " ")
    runner.repeat_sample()
    expect(bool(runner.repeat_failed), "a repeat with different bytes is caught")

    open_oracle = workloads.Oracle(invariants=None, bouquet=None, a1=None)
    group = [
        dataclasses.replace(spec, job_id=f"j{i}", group="g", oracle=open_oracle)
        for i in range(3)
    ]
    outcomes = {"j0": outcome, "j1": outcome, "j2": wrong}
    keys = {s.job_id: (s.group, checks.agreement_key(outcomes[s.job_id])) for s in group}
    expect(
        all(checks.needs_agreement(s) for s in group) and set(checks.disagreeing(keys)) == {"j2"},
        "a job that disagrees with its source germ's other jobs is caught",
    )

    t = tracer.Tracer(pkg)
    t.install()
    wrapped = set(tracer.installed_wrappers(pkg))
    t.uninstall()
    expect(
        {
            "milnorfibre.milnor.check_icis",
            "milnorfibre.decomposition.check_icis",
            "milnorfibre.jobs.Report.to_json",
            "milnorfibre.orders.MonomialOrder.key",
            "milnorfibre.rings.Polynomial.__mul__",
        }
        <= wrapped,
        "the tracer wraps a function at every module attribute that refers to it",
    )
    expect(not tracer.installed_wrappers(pkg), "uninstall leaves no wrapper behind")


def check_bare_checkout() -> None:
    """With only BENCHMARK.json and perfbench/, the run must fail without a result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        proc = run_bench(bare, "--workload", "batch-n5", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(
            proc.returncode != 0 and not proc.stdout.strip(),
            "a checkout without the package source exits non-zero and prints no result",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tiny_runs(spec)
    check_fresh_passes()
    check_harness()
    check_bare_checkout()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
