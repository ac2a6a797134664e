#!/usr/bin/env python3
"""Run the built-in regression corpus and exit nonzero on any failure.

Usage: python scripts/run_corpus.py [--seeds 0,1,2]
"""

import argparse
import sys
from pathlib import Path

# the checkout's package source comes first, so the script runs uninstalled
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from milnorfibre.corpus import run_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds",
        default="0,1,2",
        help="comma-separated recombination seeds (default 0,1,2)",
    )
    args = parser.parse_args()
    seeds = tuple(int(s) for s in args.seeds.split(","))
    result = run_corpus(seeds=seeds)
    sys.stdout.write(result.render())
    return 0 if result.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
