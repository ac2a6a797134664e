#!/usr/bin/env python3
"""Print the lines of the package that a pytest run leaves unexecuted.

Runs pytest in this process under a sys.settrace collector that records
every line executed in src/milnorfibre/, then prints, for each module of
the package, its executable lines (the lines of the code objects compiled
from its source) that never ran, as ranges, and a total.  The package is
imported only under the collector, so its module-level lines count too.
Lines run in a child process (the CLI tests' subprocesses) are not seen.

A tool for reviews, not a test gate: it exits with pytest's status, and
its counts depend on which tests are selected.  Standard library only,
beside pytest itself.

Usage: python scripts/line_coverage.py [PYTEST_ARGS...]
With no arguments it runs the checkout's tests directory quietly; the
arguments given replace that, e.g.
    python scripts/line_coverage.py -q tests -k "not test_int_coefficients_match_fraction_route"
"""

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

# the checkout's package source comes first, so the script runs uninstalled
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "milnorfibre"
sys.path.insert(0, str(ROOT / "src"))


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object compiled from the module at path."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        # line 0 is the RESUME a module starts with, before its first line
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def collect(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status for pytest_args, run under the collector, and
    the lines executed in each file of the package."""
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        replaced = sys.gettrace() is not tracer
        sys.settrace(None)
        threading.settrace(None)
    if replaced:
        sys.stderr.write("warning: the run replaced the line collector; lines after that are missed\n")
    return int(status), executed


def ranges(lines: list[int]) -> str:
    """Sorted lines as comma-separated runs, e.g. '3, 7-9'."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(executed: dict[str, set[int]]) -> str:
    out = []
    missed_total = lines_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - executed.get(str(path), set()))
        missed_total += len(missed)
        lines_total += len(lines)
        name = path.relative_to(ROOT).as_posix()
        tail = f": {ranges(missed)}" if missed else ""
        out.append(f"{name}: {len(missed)} of {len(lines)} lines unexecuted{tail}")
    out.append(f"total: {missed_total} of {lines_total} lines unexecuted")
    return "\n".join(out) + "\n"


def main() -> int:
    args = sys.argv[1:] or ["-q", str(ROOT / "tests")]
    status, executed = collect(args)
    sys.stdout.write(report(executed))
    return status


if __name__ == "__main__":
    sys.exit(main())
