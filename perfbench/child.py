"""Work the benchmark does in a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD SEED full|tiny
    python3 perfbench/child.py repeat < jobs.json

``setup`` times one cold set-up: importing the package and everything it
imports, generating the first pass's jobs and parsing each of them.  The
clock starts before any import beyond what the interpreter loads at start.
Then it times the reference computation (reference.py) a few times, in the
same process and on the same processor, and prints the set-up time and the
fastest reference time, in seconds, as the last line.

``repeat`` reads a JSON list of ``{"text", "seed"}`` jobs from standard
input, runs each, and prints one JSON outcome ``[kind, payload]`` a line,
for the byte-identity check against the outcomes of the measuring process.
"""

import time

START = time.perf_counter()

import os  # noqa: E402 - already loaded by the interpreter at start
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]
REFERENCE_RUNS = 5


def setup(workload: str, seed: int, tiny: bool) -> None:
    import milnorfibre as pkg
    import workloads

    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"milnorfibre imported from {pkg.__file__}, not from {SRC}")
    for spec in workloads.build(workload, seed, 0, tiny):
        try:
            pkg.parse_job(spec.text)
        except pkg.ParseError:
            pass  # the timed run meets it again and counts the job as failed
    elapsed = time.perf_counter() - START
    import reference

    print(elapsed, min(reference.timed() for _ in range(REFERENCE_RUNS)))


def repeat() -> None:
    import json

    import checks
    import milnorfibre as pkg

    for job in json.load(sys.stdin):
        print(json.dumps(checks.outcome(pkg, job["text"], job["seed"])), flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 5:
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "tiny")
    elif sys.argv[1:] == ["repeat"]:
        repeat()
    else:
        raise SystemExit(__doc__)
