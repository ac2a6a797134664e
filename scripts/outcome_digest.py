#!/usr/bin/env python3
"""Print one digest of the job outcomes of each benchmark workload.

For each workload it runs passes 0 .. PASSES-1 of the benchmark's job list
at workload seed SEED, each job the way the benchmark runs it
(perfbench/checks.outcome), and prints the job count and one sha256 over
(job id, outcome kind, sha256 of the report JSON or error text) in job
order.  Two checkouts whose digests agree gave the same outputs.  An
unexpected exception's text is its traceback, which names source paths, so
it matches only within one checkout.  The jobs run warm, in one process,
as the benchmark runs them: a text met earlier reuses its parsed input and
seed-free invariants with their report's parts and JSON around the seed; a
vars, g or h field met earlier reuses its parsed value; a g met earlier
reuses its linear substitution, and an H met earlier with the same span of
linear generators its restriction; a germ restricted to V(g_lin) that an
earlier job of any text restricted to, up to constant factors on H and on
each remaining generator, reuses its locus check, corank,
(g, det H) check, a and top colength, so a job reruns only the steps that
read its own input or its seed; and an invariant tuple met earlier reuses
its tables, bouquet and their JSON.
Each gives the digest of cold jobs.

Usage: python scripts/outcome_digest.py WORKLOAD[,WORKLOAD...]|all SEED PASSES
"""

import argparse
import hashlib
import sys
from pathlib import Path

# the checkout's package source comes first, so the script runs uninstalled
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import milnorfibre  # noqa: E402
from checks import outcome  # noqa: E402
from workloads import MAX_PASSES, WORKLOADS, build  # noqa: E402


def digest(workload: str, seed: int, passes: int) -> tuple[int, str]:
    total = hashlib.sha256()
    count = 0
    for index in range(passes):
        for spec in build(workload, seed, index):
            kind, payload = outcome(milnorfibre, spec.text, spec.seed)
            inner = hashlib.sha256(payload.encode()).hexdigest()
            total.update(f"{spec.job_id}\t{kind}\t{inner}\n".encode())
            count += 1
    return count, total.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", help=f"comma-separated names from {', '.join(WORKLOADS)}, or all")
    parser.add_argument("seed", type=int, help="workload seed")
    parser.add_argument("passes", type=int, help=f"passes to run, 1 to {MAX_PASSES}")
    args = parser.parse_args()
    names = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    if not 1 <= args.passes <= MAX_PASSES:
        parser.error(f"passes must be in 1..{MAX_PASSES}, got {args.passes}")
    for name in names:
        count, hexdigest = digest(name, args.seed, args.passes)
        sys.stdout.write(
            f"{name} seed {args.seed} passes 0-{args.passes - 1}: {count} jobs, sha256 {hexdigest}\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
