"""Job lists and their oracles for the three benchmark workloads.

Every job is the text of a job file plus a Milnor seed, exactly what a user
hands to ``milnorfibre homology``.  Inputs come only from the workload seed
and the pass index.  Expected values come from closed forms written down
here, never from the program under test:

- order-k family at n = 5:        (mu0, mu1, a, corank) = (0, 2k-1, k, 2), S^3
- two-point D(3,2) example:       (0, 3, 2, 2), S^3
- D(3,p) normal form at n:        p=0 (0,0,0,0), p=1 (0,0,0,1), p=2 (0,1,1,2);
                                  bouquet S^(n+p-4)
- non-isolated det H locus:       ComputationError
- sparse-shear or sign-change
  image of a germ:                the oracle of its source germ, because both
                                  are invertible linear changes of
                                  coordinates

Where no closed form exists (the estimated #A1 and the homology that depends
on it), the oracle field is None and the jobs of one source germ must agree
with each other across Milnor seeds, variable orders, shears and passes.

A workload is a fixed list of slots, drawn from the workload seed.  The
benchmark runs the list in passes, and each pass renders every slot afresh
from (workload seed, pass index): the germ's variables get a new sign
pattern x_i -> -x_i and, where the workload allows it, new Milnor seeds, new
constant factors on g and H and new order-1 shear coefficients.  So no
(job text, Milnor seed) recurs across the passes of a run (at most
MAX_PASSES of them), and in heavy-local no job text recurs, so a cache keyed
on them cannot carry work from one pass into the next.  Only a cache that
recognises an ideal up to the signs of its variables, or up to constant
factors on its generators, could.  A sign change fixes every monomial and
maps each step of the computation to the same step with other signs, so it
leaves a job's cost unchanged as well as its invariants.

Reuse that a cross-job cache may find, within one pass:

- batch-n5:       each germ six times (two variable orders x three Milnor
                  seeds, with the same g and H)
- heavy-local:    none
- a1-saturation:  each plain germ twice (two variable orders, each with its
                  own Milnor seed)
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

WORKLOADS = ("batch-n5", "heavy-local", "a1-saturation")

# The heavy-local germs with the fewest occurring variables have five, so
# 2^5 sign patterns.
MAX_PASSES = 32

# Milnor seeds of pass p lie in [p * SEED_SPAN, (p + 1) * SEED_SPAN).
SEED_SPAN = 1_000_000

V5 = ("x1", "x2", "x3", "y1", "y2")


@dataclass(frozen=True)
class Oracle:
    """Expected outcome of a job; None marks a field checked by agreement."""

    invariants: tuple[int, int, int, int] | None = None  # (mu0, mu1, a, corank)
    bouquet: tuple[tuple[int, int], ...] | None = None  # ((dim, count), ...)
    a1: int | None = None
    error: bool = False  # the job must raise ComputationError


FAILS = Oracle(error=True)


@dataclass(frozen=True)
class Germ:
    name: str
    variables: tuple[str, ...]
    g: tuple[str, ...]
    h: tuple[tuple[str, ...], ...]
    oracle: Oracle


@dataclass(frozen=True)
class JobSpec:
    job_id: str  # "<slot>/p<pass>", unique within a run
    slot: str  # the same job in every pass, up to its rendering
    group: str  # source germ; jobs of one group must agree
    text: str  # job file contents
    seed: int  # Milnor seed handed to milnorfibre.Job
    n: int
    a1_mode: str  # "assume_zero" or "estimate"
    oracle: Oracle


def order_k(k: int) -> Germ:
    return Germ(
        f"order{k}",
        V5,
        ("y1", "y2"),
        (("x3", "x2"), ("x2", f"x1^{k} - x3")),
        Oracle((0, 2 * k - 1, k, 2), ((3, 1),), 0),
    )


def two_point() -> Germ:
    return Germ(
        "two-point",
        ("x1", "x2", "x3", "x4", "x5"),
        ("x1", "x2"),
        (("x3", "x4"), ("x4", "x3 - x5^2")),
        Oracle((0, 3, 2, 2), ((3, 1),), 0),
    )


def dkp(p: int, n: int) -> Germ:
    """D(3,p) normal form padded to n variables with an identity block."""
    size = n - 3
    block = {0: (), 1: (("x1",),), 2: (("x1", "x2"), ("x2", "x3"))}[p]
    rows = tuple(
        tuple(
            block[i][j] if i < len(block) and j < len(block) else ("1" if i == j else "0")
            for j in range(size)
        )
        for i in range(size)
    )
    invariants = {0: (0, 0, 0, 0), 1: (0, 0, 0, 1), 2: (0, 1, 1, 2)}[p]
    return Germ(
        f"d3{p}-n{n}",
        tuple(f"x{i}" for i in range(1, n + 1)),
        tuple(f"x{i}" for i in range(4, n + 1)),
        rows,
        Oracle(invariants, ((n + p - 4, 1),), 0),
    )


def non_isolated(k: int, m: int) -> Germ:
    """det H = x1^m with m >= 2 makes the (g, det H) scheme non-reduced along
    a surface, so its singular locus is not isolated."""
    return Germ(
        f"fail-k{k}-m{m}",
        V5,
        ("y1", f"x1^{k} + x2^2 + x3^2 + y2^2"),
        ((f"x1^{m}", "0"), ("0", "1")),
        FAILS,
    )


def _substitute(germ: Germ, images: dict[str, str], name: str) -> Germ:
    """Replace each variable named in images by its image, textually; the job
    parser expands the products and powers."""
    token = re.compile(r"\b(" + "|".join(map(re.escape, images)) + r")\b")

    def sub(text: str) -> str:
        return token.sub(lambda m: images[m.group(1)], text)

    return Germ(
        name,
        germ.variables,
        tuple(sub(t) for t in germ.g),
        tuple(tuple(sub(t) for t in row) for row in germ.h),
        germ.oracle,
    )


def _lin(var: str, c: int, other: str) -> str:
    sign = "+" if c > 0 else "-"
    return f"({var} {sign} {abs(c)}*{other})"


def shear(source: Germ, a: int, b: int, c: int) -> Germ:
    """Image of an order-k germ under the sparse integer shear

        x1 -> x2 + a*y2, x2 -> x1, x3 -> x2 + b*y1, y1 -> x3 + c*x2, y2 -> x2,

    which is invertible whenever a and b are nonzero.
    """
    if a == 0 or b == 0:
        raise ValueError("shear needs nonzero a and b to be invertible")
    images = {
        "x1": _lin("x2", a, "y2"),
        "x2": "(x1)",
        "x3": _lin("x2", b, "y1"),
        "y1": _lin("x3", c, "x2"),
        "y2": "(x2)",
    }
    return _substitute(source, images, f"{source.name}-shear({a},{b},{c})")


def occurring(germ: Germ) -> list[str]:
    """The variables that occur in g or H, in ring order."""
    text = " ".join(germ.g + tuple(e for row in germ.h for e in row))
    return [v for v in germ.variables if re.search(rf"\b{re.escape(v)}\b", text)]


def sign_change(germ: Germ, pattern: int) -> Germ:
    """Image under v -> -v for the i-th occurring variable v whenever bit i
    of pattern is set; distinct patterns below 2^len(occurring) give
    distinct texts."""
    negated = {v: f"(-{v})" for i, v in enumerate(occurring(germ)) if pattern >> i & 1}
    return _substitute(germ, negated, germ.name) if negated else germ


def job_text(
    germ: Germ,
    reverse: bool = False,
    scale_g: int = 1,
    scale_h: int = 1,
    estimate_a1: bool = False,
    with_f: bool = False,
) -> str:
    """Render a germ as a job file.  Scaling g and H by nonzero constants
    leaves every invariant unchanged; ``with_f`` adds the expanded-product
    cross-check f = g * H * g^T, written unexpanded."""
    g = [t if scale_g == 1 else f"{scale_g}*({t})" for t in germ.g]
    h = [
        [e if scale_h == 1 or e == "0" else f"{scale_h}*({e})" for e in row]
        for row in germ.h
    ]
    variables = germ.variables[::-1] if reverse else germ.variables
    lines = [
        "[ring]",
        f"vars = {' '.join(variables)}",
        "[ideal]",
        f"g = {'; '.join(g)}",
        "[matrix]",
        "h = [" + ", ".join("[" + ", ".join(row) + "]" for row in h) + "]",
    ]
    options = []
    if estimate_a1:
        options.append("a1 = estimate")
    if with_f:
        products = [
            f"({g[i]})*({h[i][j]})*({g[j]})"
            for i in range(len(g))
            for j in range(len(g))
            if h[i][j] != "0"
        ]
        options.append("f = " + " + ".join(products))
    if options:
        lines.append("[options]")
        lines.extend(options)
    return "\n".join(lines) + "\n"


class Pass:
    """Renders the slots of one pass.

    ``fixed`` draws what stays the same in every pass (which germs, which
    failure germs, the job order, each germ's first sign pattern); it is
    seeded by the workload seed alone and consumed identically by every
    pass.  ``fresh`` draws what changes from pass to pass."""

    def __init__(self, workload: str, seed: int, index: int):
        if not 0 <= index < MAX_PASSES:
            raise ValueError(f"pass index {index} outside [0, {MAX_PASSES})")
        self.index = index
        self.fixed = random.Random(f"{workload}/{seed}")
        self.fresh = random.Random(f"{workload}/{seed}/pass{index}")

    def signs(self, germ: Germ, start: int | None = None) -> Germ:
        """The germ under this pass's sign pattern: consecutive passes take
        consecutive patterns from a fixed start, so no two passes share one."""
        count = 2 ** len(occurring(germ))
        if start is None:
            start = self.fixed.randrange(count)
        return sign_change(germ, (start + self.index) % count)

    def milnor_seeds(self, count: int) -> list[int]:
        """count distinct Milnor seeds of this pass."""
        return [self.index * SEED_SPAN + s for s in self.fresh.sample(range(SEED_SPAN), count)]

    def nonzero(self, bound: int) -> int:
        return self.fresh.choice([v for v in range(-bound, bound + 1) if v])

    def spec(
        self, slot: str, germ: Germ, order: str, seed: int, estimate: bool, **render
    ) -> JobSpec:
        oracle = germ.oracle
        if estimate and not oracle.error:
            # the estimated #A1 and everything downstream of it has no closed form
            oracle = Oracle(oracle.invariants, None, None)
        return JobSpec(
            job_id=f"{slot}/p{self.index}",
            slot=slot,
            group=germ.name.split("-shear")[0],
            text=job_text(germ, reverse=(order == "reversed"), estimate_a1=estimate, **render),
            seed=seed,
            n=len(germ.variables),
            a1_mode="estimate" if estimate else "assume_zero",
            oracle=oracle,
        )


def batch_n5(p: Pass, tiny: bool) -> list[JobSpec]:
    """Small jobs at n = 5-6, each germ under both variable orders and three
    Milnor seeds, with a few germs that must fail.  Every pass draws new
    Milnor seeds and new factors on g and H for every germ."""
    good = [order_k(k) for k in range(1, 7)] + [two_point()]
    good += [dkp(q, n) for q in (0, 1, 2) for n in (5, 6)]
    pairs = [(k, m) for k in (1, 2, 3, 4) for m in (2, 3)]
    bad = [non_isolated(k, m) for k, m in p.fixed.sample(pairs, 3)]
    germs = [good[0], bad[0]] if tiny else good + bad
    specs = []
    for germ in germs:
        image = p.signs(germ)
        # every germ draws its own Milnor seeds: a seed changes the cost of
        # a job, and seeds shared by all germs would move a whole pass
        seeds = p.milnor_seeds(1 if tiny else 3)
        render = dict(scale_g=p.nonzero(3), scale_h=p.nonzero(3), with_f=True)
        for order in ("given", "reversed"):
            for i, s in enumerate(seeds):
                specs.append(p.spec(f"{germ.name}/{order}/m{i}", image, order, s, False, **render))
    p.fixed.shuffle(specs)
    return specs


_SHEAR_COEFFICIENTS = [
    (a, b, c) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2) for c in (-2, -1, 1, 2)
]


def _order1_shears(p: Pass, count: int) -> list[tuple[str, Germ]]:
    """(slot, germ) for shear images of the order-1 germ under one sign
    pattern, no two in a pass with the same coefficients; every pass draws
    new coefficients, so no two jobs of a run have the same text."""
    start = p.fixed.randrange(2 ** len(V5))
    return [
        (f"order1-shear#{i}", p.signs(shear(order_k(1), *abc), start))
        for i, abc in enumerate(p.fresh.sample(_SHEAR_COEFFICIENTS, count))
    ]


# The heavy shear, fixed: the cost of a shear image of the order-2 or
# order-3 germ swings from 0.5 s to minutes with the coefficients and the
# Milnor seed, and by up to 2x with the constant factors on g and H.
_HEAVY_SHEAR = shear(order_k(2), 1, -1, 2)


def heavy_local(p: Pass, tiny: bool) -> list[JobSpec]:
    """Jobs of 0.05-0.8 s and a few of 25-60 ms, no germ repeated, all with
    Milnor seed 0: the D(3,0) normal form at n = 9, D(3,1) at n = 7-9, D(3,2)
    at n = 7-8, one fixed shear of the order-2 germ (0.75 s against 10 ms
    unsheared), and six order-1 shears whose coefficients every pass draws
    anew.

    The Milnor seed, the coefficients of the heavy shear and the factors on g
    and H stay fixed, because each of them moves the cost of a heavy job by
    up to 2x or more; a pass changes only the sign pattern of each germ,
    which leaves the cost as it is.  The list is kept to about 3 s a pass,
    so that a run holds ten or more passes for each slot's median.  That
    leaves out D(3,2) at n = 9 (about 4 s) and the shears of the order-3
    germ (1 s or more): with one of them the p90 latency rests on the two
    heaviest jobs and spreads three times as much from run to run."""
    if tiny:
        return [p.spec("d31-n7", p.signs(dkp(1, 7)), "given", 0, False)]
    germs = [dkp(q, n) for q, n in ((0, 9), (1, 7), (1, 8), (1, 9), (2, 7), (2, 8))]
    germs.append(_HEAVY_SHEAR)
    slots = [(germ.name, p.signs(germ)) for germ in germs] + _order1_shears(p, 6)
    specs = [p.spec(slot, image, "given", 0, False) for slot, image in slots]
    p.fixed.shuffle(specs)
    return specs


def a1_saturation(p: Pass, tiny: bool) -> list[JobSpec]:
    """Small germs under both variable orders and order-1 shear images, all
    at n = 5-6 with a1 = estimate.  Every pass draws new Milnor seeds and new
    shear coefficients."""
    plain = [order_k(k) for k in (1, 2, 3, 4)] + [two_point()]
    plain += [dkp(q, n) for q in (0, 1, 2) for n in (5, 6)]
    shears = _order1_shears(p, 4)
    if tiny:
        plain, shears = [dkp(0, 5)], shears[:1]
    specs = []
    for germ in plain:
        image = p.signs(germ)
        for order in ("given", "reversed"):
            specs.append(p.spec(f"{germ.name}/{order}", image, order, *p.milnor_seeds(1), True))
    for slot, image in shears:
        specs.append(p.spec(slot, image, "given", *p.milnor_seeds(1), True))
    p.fixed.shuffle(specs)
    return specs


_BUILDERS = {
    "batch-n5": batch_n5,
    "heavy-local": heavy_local,
    "a1-saturation": a1_saturation,
}


def build(workload: str, seed: int, index: int = 0, tiny: bool = False) -> list[JobSpec]:
    """The jobs of pass ``index``; equal (seed, index) give equal lists, and
    every pass of a seed has the same slots in the same order."""
    specs = _BUILDERS[workload](Pass(workload, seed, index), tiny)
    if len({s.slot for s in specs}) != len(specs):
        raise ValueError(f"duplicate slots in {workload}")
    return specs
