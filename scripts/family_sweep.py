#!/usr/bin/env python3
"""Sweep the order-k family in 5 variables and print its invariant table.

The family is g = (y1, y2), H = [[x3, x2], [x2, x1^k - x3]].  Its Milnor
fibre stays a 3-sphere for every k while (mu1, a) grow linearly; this
script reproduces that plateau and is a handy end-to-end smoke check.

Usage: python scripts/family_sweep.py [--max-order 6] [--seed 0]
"""

import argparse
import sys
import time
from pathlib import Path

# the checkout's package source comes first, so the script runs uninstalled
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from milnorfibre.decomposition import SingularityInput
from milnorfibre.jobs import Job, run_homology
from milnorfibre.rings import PolyMatrix, Ring, parse_polynomial


def family_input(k: int) -> SingularityInput:
    ring = Ring(("x1", "x2", "x3", "y1", "y2"))
    p = lambda t: parse_polynomial(t, ring)
    return SingularityInput(
        ring=ring,
        g=(p("y1"), p("y2")),
        h=PolyMatrix(ring, [[p("x3"), p("x2")], [p("x2"), p(f"x1^{k} - x3")]]),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(f"{'k':>3} {'mu0':>4} {'mu1':>4} {'a':>4} {'corank':>7} "
          f"{'bouquet':>8} {'seconds':>8}")
    for k in range(1, args.max_order + 1):
        start = time.perf_counter()
        report = run_homology(Job(input=family_input(k), seed=args.seed))
        inv = report.invariants
        elapsed = time.perf_counter() - start
        print(
            f"{k:>3} {inv.mu0:>4} {inv.mu1:>4} {inv.a:>4} {inv.corank:>7} "
            f"{str(report.sphere_bouquet):>8} {elapsed:>8.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
