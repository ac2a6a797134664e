"""Benchmark of the milnorfibre pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One measuring process, one client, no threads: a closed loop that
runs one job at a time, each job the path the command line takes
(``parse_job`` -> ``run_homology`` -> ``Report.to_json``).  The loop runs
whole passes over the workload's slots while the time allows, so every pass
weighs each slot equally, and every pass renders each slot afresh from
(workload seed, pass index): no (job text, Milnor seed) recurs in a run, so
work kept from an earlier pass cannot serve a later one (see workloads.py
for what each workload lets a cache reuse).  Every outcome is checked
against its oracle (see workloads.py and checks.py), and a sample of the
jobs is repeated in a fresh process, whose outputs must be byte-identical.

``--trace 0`` measures with no wrapper installed and reports the end-to-end
metrics:

- setup_s      median over 21 cold set-ups, each in a fresh interpreter
               (child.py): importing the package and everything it imports,
               generating the first pass's jobs and parsing each of them
- jobs_per_s   slots / the sum over slots of each slot's median latency
- job_p50_ms,  quantiles of the latencies (parse to JSON) of every job the
  job_p90_ms   run timed; the stderr summary gives the sample count and how
               many lie beyond p90
- ok_frac      1 - failed / attempted; the failure fraction itself is 0 on a
               healthy run, and a metric must never read 0
- peak_rss_mb  the measuring process's ru_maxrss

Times are reported at the nominal speed of the machine.  A shared machine's
speed swings by up to 2x within seconds and by 20-40% from one minute to the
next, so the measuring process times a fixed reference computation
(reference.py) between jobs, and scales each job's time by
reference.NOMINAL_S over the mean of the reference times just before and
just after it.  A slot's median latency is the median of its scaled
latencies over the passes.  A set-up runs in a fresh interpreter, which may
run on the other processor, so each set-up is scaled by the fastest of a few
reference times taken in its own interpreter right after it.  The stderr
summary also gives the unscaled figures and the run's slowdown against
nominal, the low decile of its reference times over NOMINAL_S.

``--trace 1`` alternates untraced passes with passes traced by
tracer.py, writes the spans to ``perfbench/out/`` and reports the per-layer
metrics derived from them.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A summary for
people goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks
import reference
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
PACKAGE = "milnorfibre"
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 60
MAX_TRACE_PAIRS = 3  # enough passes for per-pass counts; more only add spans
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)


class SetupError(RuntimeError):
    pass


def import_package():
    """Import the package from SRC into this process."""
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg


def cold_setups(workload: str, seed: int, tiny: bool) -> list[tuple[float, float]]:
    """setup_s samples as (measured, scaled to nominal speed): one set-up in
    each of SETUP_REPEATS fresh interpreters."""
    command = [sys.executable, str(CHILD), "setup", workload, str(seed), "tiny" if tiny else "full"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        measured, ref = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append((measured, measured * reference.NOMINAL_S / ref))
    return times


class Runner:
    """Runs the passes of one workload a job at a time and records durations
    and failures."""

    def __init__(self, pkg, workload: str, seed: int, tiny: bool):
        self.pkg = pkg
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.slots = [s.slot for s in workloads.build(workload, seed, 0, tiny)]
        self.passes = 0
        self.attempted = 0
        self.seen: set[int] = set()  # hashes of the (text, seed) run so far
        self.first: list[workloads.JobSpec] = []  # the first pass
        self.outcomes: dict[str, tuple[str, str]] = {}  # of the first pass
        self.agreement: dict[str, tuple[str, str]] = {}  # job id -> (group, key)
        self.failed: dict[str, str] = {}  # job id -> why its run failed
        self.repeats = 0
        self.repeat_failed: dict[str, str] = {}  # job id -> why its repeat failed
        # per slot, one (measured, scaled to nominal speed) latency a pass
        self.timings: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.references: list[float] = []
        self.tracer: tracing.Tracer | None = None

    def run_job(self, spec: workloads.JobSpec) -> float:
        if self.tracer is not None:
            self.tracer.job = spec.job_id
        start = time.perf_counter()
        outcome = checks.outcome(self.pkg, spec.text, spec.seed)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if self.passes == 1:
            self.outcomes[spec.job_id] = outcome
        if checks.needs_agreement(spec):
            self.agreement[spec.job_id] = (spec.group, checks.agreement_key(outcome))
        problem = checks.against_oracle(spec, outcome)
        if problem is None and threading.active_count() > 1:
            # the measurement assumes one thread, as the reference timing does
            problem = "a thread was still running after the job"
        if problem is not None:
            self.failed[spec.job_id] = problem
        return elapsed

    def run_pass(self) -> None:
        specs = workloads.build(self.workload, self.seed, self.passes, self.tiny)
        self.passes += 1
        before = reference.timed()
        self.references.append(before)
        if self.passes == 1:
            self.first = specs
        for spec in specs:
            key = hash((spec.text, spec.seed))
            if key in self.seen:
                raise RuntimeError(f"{spec.job_id} repeats an earlier job of this run")
            self.seen.add(key)
            elapsed = self.run_job(spec)
            after = reference.timed()
            self.references.append(after)
            scaled = elapsed * 2 * reference.NOMINAL_S / (before + after)
            self.timings[spec.slot].append((elapsed, scaled))
            before = after

    def repeat_sample(self) -> None:
        """Repeat a sample of the first pass in a fresh interpreter with
        another hash seed; each output must be byte-identical."""
        rng = random.Random(f"determinism/{self.workload}/{self.seed}")
        first = self.first
        sample = rng.sample(first, min(len(first), max(2, len(first) // 10)))
        env = dict(os.environ, PYTHONHASHSEED=str(rng.randrange(1, 2**32)))
        jobs = json.dumps([{"text": s.text, "seed": s.seed} for s in sample])
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), "repeat"],
                input=jobs, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
            )
            lines = proc.stdout.splitlines()
            error = None
            if proc.returncode != 0 or len(lines) != len(sample):
                error = f"repeat process exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            lines, error = [], f"repeat process ran past {CHILD_TIMEOUT_S} s"
        for spec, line in zip(sample, lines if error is None else [None] * len(sample)):
            self.repeats += 1
            if error is not None:
                self.repeat_failed[spec.job_id] = error
            elif tuple(json.loads(line)) != self.outcomes[spec.job_id]:
                self.repeat_failed[spec.job_id] = "output differs from its repeat in a fresh process"

    def tally(self) -> tuple[int, int]:
        """(attempted, failed), counting runs and repeats.  A job that
        disagrees with the other jobs of its source germ fails."""
        for job_id, problem in checks.disagreeing(self.agreement).items():
            self.failed.setdefault(job_id, problem)
        return self.attempted + self.repeats, len(self.failed) + len(self.repeat_failed)

    def latencies(self, timings=None, scaled: bool = True) -> list[float]:
        """Each slot's median latency over the passes, scaled to nominal
        speed or as measured."""
        timings = self.timings if timings is None else timings
        return [statistics.median(t[scaled] for t in timings[slot]) for slot in self.slots]


def timed_loop(seconds: float, step, max_steps: int) -> int:
    """Call step() (one pass) until another would overrun; at least once."""
    start = time.perf_counter()
    steps = 0
    while True:
        t0 = time.perf_counter()
        step()
        steps += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds or steps == max_steps:
            return steps


def measure(runner: Runner, seconds: float, setup_times: list[tuple[float, float]]):
    passes = timed_loop(seconds, runner.run_pass, workloads.MAX_PASSES)
    runner.repeat_sample()
    attempted, failed = runner.tally()
    lat = runner.latencies()
    jobs = [scaled for timings in runner.timings.values() for _, scaled in timings]
    p90 = quantile90(jobs)
    slowdown = reference.slowdown(runner.references)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": 1000 * statistics.median(jobs),
        "job_p90_ms": 1000 * p90,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wrapped = tracing.installed_wrappers(runner.pkg)
    if wrapped:
        raise RuntimeError(f"untraced run found tracer wrappers: {wrapped[:5]}")
    raw = runner.latencies(scaled=False)
    raw_jobs = [measured for timings in runner.timings.values() for measured, _ in timings]
    note = (
        f"{passes} passes of {len(lat)} slots; latency quantiles over {len(jobs)} jobs, "
        f"{sum(1 for x in jobs if x > p90)} beyond p90; "
        f"{runner.repeats} jobs repeated in a fresh process; fail_frac {failed}/{attempted}\n"
        f"machine slowdown against nominal {slowdown:.2f}x; "
        f"unscaled: setup_s {statistics.median(measured for measured, _ in setup_times):.4f}, "
        f"jobs_per_s {len(raw) / sum(raw):.3f}, job_p50_ms {1000 * statistics.median(raw_jobs):.2f}, "
        f"job_p90_ms {1000 * quantile90(raw_jobs):.2f}"
    )
    return metrics, dict(END_TO_END), attempted, failed, note


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def measure_traced(runner: Runner, seconds: float):
    """Untraced and traced passes in turn; the two sides' scaled pass times
    give the tracing overhead."""
    tracer = tracing.Tracer(runner.pkg)
    plain, traced = defaultdict(list), defaultdict(list)

    def pair():
        runner.timings = plain
        runner.run_pass()
        tracer.install()
        runner.tracer, runner.timings = tracer, traced
        tracer.begin_pass()
        try:
            runner.run_pass()
        finally:
            runner.tracer = None
            tracer.uninstall()

    pairs = timed_loop(seconds, pair, MAX_TRACE_PAIRS)
    runner.repeat_sample()
    attempted, failed = runner.tally()
    path = OUT / f"trace-{runner.workload}-seed{runner.seed}.jsonl"
    tracer.write(
        path,
        {
            "workload": runner.workload,
            "seed": runner.seed,
            "untraced_pass_s": sum(runner.latencies(plain)),
            "traced_pass_s": sum(runner.latencies(traced)),
        },
    )
    metrics = tracing.derive(*tracing.load(path))
    note = (
        f"{pairs} untraced + {pairs} traced passes of {len(runner.slots)} slots; "
        f"{len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}; "
        f"fail_frac {failed}/{attempted}\n" + split_report(runner.workload, metrics)
    )
    return metrics, dict(tracing.PER_LAYER), attempted, failed, note


# What the traced run should show on each workload, stated before measuring.
PREDICTIONS = {
    "heavy-local": (
        "rings + standard_basis self time >= 0.9 of job time",
        lambda m: m["rings.self_share"] + m["standard_basis.self_share"] >= 0.9,
    ),
    "a1-saturation": (
        "standard_basis.saturate >= 0.5 of job time",
        lambda m: m["standard_basis.saturate.s"] >= 0.5 * m["trace.job_s"],
    ),
    "batch-n5": (
        "per-job fixed work (parse_job, collect_tables, to_json, run_homology self) "
        "and the repeated check_icis each >= 0.05 of job time",
        lambda m: m["jobs.parse_job.s"] + m["jobs.collect_tables.s"] + m["jobs.to_json.s"]
        + m["jobs.run_homology.self_s"] >= 0.05 * m["trace.job_s"]
        and m["milnor.check_icis.s"] >= 0.05 * m["trace.job_s"],
    ),
}


def split_report(workload: str, m: dict[str, float]) -> str:
    lines = ["self-time shares of traced job time:"]
    for layer in tracing.LAYERS:
        lines.append(f"  {layer:15s} {m[layer + '.self_share']:7.1%}")
    job = m["trace.job_s"]
    inclusive = (
        "jobs.parse_job.s", "jobs.collect_tables.s", "jobs.to_json.s",
        "milnor.check_icis.s", "standard_basis.saturate.s", "standard_basis.intersect_ideals.s",
    )
    lines.append("inclusive shares:")
    for name in inclusive:
        lines.append(f"  {name:33s} {m[name] / job if job else 0.0:7.1%}")
    text, holds = PREDICTIONS[workload]
    lines.append(f"prediction: {text}: {'holds' if holds(m) else 'DOES NOT HOLD'}")
    lines.append(f"tracing overhead: {m['trace.overhead_frac']:.1%}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a job or two per workload, for the self-test",
    )
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tiny = args.size == "tiny"
    try:
        setup_times = [] if args.trace else cold_setups(args.workload, args.seed, tiny)
        pkg = import_package()
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    runner = Runner(pkg, args.workload, args.seed, tiny)
    if args.trace:
        metrics, units, attempted, failed, note = measure_traced(runner, args.seconds)
    else:
        metrics, units, attempted, failed, note = measure(runner, args.seconds, setup_times)

    print(f"{args.workload} seed {args.seed}: {note}", file=sys.stderr)
    for job_id, problem in sorted(runner.failed.items()):
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)
    for job_id, problem in sorted(runner.repeat_failed.items()):
        print(f"FAILED repeat of {job_id}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
