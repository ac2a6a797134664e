#!/usr/bin/env python3
"""Count Mora blow-ups of the one-step mu1 colength under the two orders of
its generators.

Each trial picks one of the order-3 and order-4 corpus germs and applies 1-4
random shears x_i -> x_i + c*x_j (c in -2, -1, 1, 2) to its variables.  For
each image whose (g, det H) passes check_icis, it computes the top colength
of the mu1 step, the colength of the head g plus the maximal minors of
Jac(g, det H), twice under the reduction budget: head first, and minors
first as top_colength orders them.  It prints each budget trip and, at
the end, the number of trips per order.

Usage: python scripts/order_sweep.py SEED TRIALS [--budget N]
"""

import argparse
import random
import sys
from pathlib import Path

# the checkout's package source comes first, so the script runs uninstalled
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from milnorfibre.corpus import build_input, builtin_cases  # noqa: E402
from milnorfibre.errors import BudgetExceededError  # noqa: E402
from milnorfibre.milnor import check_icis  # noqa: E402
from milnorfibre.orders import local_order  # noqa: E402
from milnorfibre.rings import determinant_and_minors  # noqa: E402
from milnorfibre.standard_basis import Budgets, colength  # noqa: E402

ORDERS = ("head-first", "minors-first")


def sheared(case, rng: random.Random):
    """(g, det H) of the case after 1-4 random shears, and the shears as
    (i, j, c) for x_i -> x_i + c*x_j, applied in turn."""
    inp = build_input(case, "given")
    ring, n = inp.ring, inp.ring.nvars
    images = list(ring.gens())
    shears = []
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        images[i] = images[i] + images[j].scale(c)
        shears.append((i, j, c))
    values = dict(zip(ring.variables, images))
    g = [q.substitute(values) for q in inp.g]
    det = determinant_and_minors(inp.h)[0].substitute(values)
    return g, det, shears


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seed", type=int, help="seed of the trial stream")
    parser.add_argument("trials", type=int, help="number of sheared germs")
    parser.add_argument("--budget", type=int, default=4000, help="reductions per colength")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    germs = [c for c in builtin_cases() if c.name.startswith(("order-3-", "order-4-"))]
    budgets = Budgets(reductions=args.budget)
    trips = dict.fromkeys(ORDERS, 0)
    checked = 0
    for trial in range(args.trials):
        case = rng.choice(germs)
        g, det, shears = sheared(case, rng)
        check = check_icis(g + [det])
        if not check.ok:
            continue
        checked += 1
        head, minors = list(check.gens[:-1]), list(check.maximal_minors)
        order = local_order(check.gens[0].ring.nvars)
        for name, gens in zip(ORDERS, (head + minors, minors + head)):
            try:
                colength(gens, order, budgets)
            except BudgetExceededError:
                trips[name] += 1
                g_text = ", ".join(map(str, g))
                print(f"trip: trial {trial} {case.name} shears {shears} g = ({g_text}) {name}")
    print(
        f"seed {args.seed}: {checked} of {args.trials} sheared germs checked, "
        f"budget {args.budget} reductions"
    )
    for name in ORDERS:
        print(f"{name}: {trips[name]} trips")
    return 0


if __name__ == "__main__":
    sys.exit(main())
