"""Milnor numbers of isolated complete intersection singularity germs.

The Milnor number of a germ cut out by k functions is computed by the
Le-Greuel recursion: after a random linear recombination of the generators,
mu = sum over j of (-1)^(k-j) * c_j where c_j is the colength of the ideal
spanned by the first j-1 recombined functions together with the j x j
minors of the Jacobian of the first j.  Validity of a recombination is
witnessed by every c_j being finite; an unlucky draw is retried from the
same seeded stream.

check_icis tests a presentation once and returns an IcisCheck that carries
its generators and the maximal minors of their Jacobian J; milnor_icis takes
that check as its witness and runs the chain on its generators, so a caller
never tests the same ideal twice.  The chain's minors come from one pass of
the minors engine over the Jacobian of the first k-1 recombined functions
(rings.leading_minors), and its top level is the check's maximal minors.
So only k-1 rows of the recombination are drawn: when every c_j is finite
those rows are independent (a dependent row makes some j x j minors vanish
and leaves c_j the colength of j-1 functions, which is infinite), so they
complete to an invertible A, and by Cauchy-Binet the k x k minors of A*J
are det(A) times those of J, which span the same ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .orders import local_order
from .rings import Polynomial, jacobian, leading_minors, minors
from .standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _staircase,
    colength,
)

RECOMBINATION_ENTRY_BOUND = 9
RECOMBINATION_ATTEMPTS = 8


def draw_recombination(k: int, rng: random.Random) -> list[list[int]]:
    """The first k-1 rows of a k x k recombination, entries in [-9, 9],
    drawn row by row from the stream."""
    bound = RECOMBINATION_ENTRY_BOUND
    return [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k - 1)]


def recombine(gens: Sequence[Polynomial], matrix: list[list[int]]) -> tuple[Polynomial, ...]:
    """Apply an integer matrix to a generator list."""
    ring = gens[0].ring
    out = []
    for row in matrix:
        acc = ring.zero()
        for c, g in zip(row, gens):
            if c:
                acc = acc + g.scale(c)
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class IcisCheck:
    """Outcome of the isolated-complete-intersection test."""

    ok: bool
    colength: int | float
    unbounded_variables: tuple[str, ...]
    gens: tuple[Polynomial, ...]
    maximal_minors: tuple[Polynomial, ...]

    def message(self) -> str:
        if self.ok:
            return f"singular locus colength {self.colength}"
        missing = ", ".join(self.unbounded_variables)
        return f"INFINITE singular locus (unbounded in {missing})"


def check_icis(gens: Sequence[Polynomial], budgets: Budgets = DEFAULT_BUDGETS) -> IcisCheck:
    """Test that V(gens) is a complete intersection with at most an isolated
    singularity at the origin: the ideal of the generators plus the maximal
    minors of their Jacobian must have finite colength."""
    if not gens:
        raise InvalidIcisError("empty presentation")
    ring = gens[0].ring
    k = len(gens)
    if k > ring.nvars:
        raise InvalidIcisError(
            f"{k} generators in {ring.nvars} variables cannot be a complete intersection"
        )
    if any(g.is_zero() for g in gens):
        raise InvalidIcisError("zero generator in the presentation")
    if any(g.constant_coefficient() != 0 for g in gens):
        raise InvalidIcisError("generator does not vanish at the origin")
    maximal = minors(jacobian(ring, list(gens)), k)
    value, unbounded = _staircase(list(gens) + list(maximal), local_order(ring.nvars), budgets)
    return IcisCheck(value != INFINITE, value, unbounded, tuple(gens), maximal)


def _chain_colengths(
    check: IcisCheck, rows: list[list[int]], budgets: Budgets
) -> list[int | float]:
    """Colengths c_1..c_k of the chain of check.gens recombined by the k-1
    rows of draw_recombination."""
    ring = check.gens[0].ring
    order = local_order(ring.nvars)
    # step j < k takes level j of one pass over the k-1 recombined rows;
    # step k takes the check's maximal minors, which span the same ideal as
    # those of any invertible completion of the rows (Cauchy-Binet)
    head = recombine(check.gens, rows)
    levels = leading_minors(jacobian(ring, list(head))) if head else ()
    return [
        colength(list(head[: j - 1]) + list(level), order, budgets)
        for j, level in enumerate(levels + (check.maximal_minors,), start=1)
    ]


def milnor_icis(
    check: IcisCheck,
    seed: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Milnor number of the germ cut out by check.gens, where check is the
    check_icis outcome for those generators: milnor_icis(check_icis(gens)).

    Raises InvalidIcisError when the check found no isolated complete
    intersection singularity, ComputationError when no valid recombination
    appears within the attempt cap.
    """
    if not check.ok:
        raise InvalidIcisError(
            f"not an isolated complete intersection: {check.message()}"
        )
    k = len(check.gens)
    rng = random.Random(seed)
    last_error = None
    for _ in range(RECOMBINATION_ATTEMPTS):
        cs = _chain_colengths(check, draw_recombination(k, rng), budgets)
        if any(c == INFINITE for c in cs):
            last_error = f"chain colengths {cs} not all finite"
            continue
        mu = 0
        for j, c in enumerate(cs, start=1):
            mu += c if (k - j) % 2 == 0 else -c
        if mu < 0:
            raise InconsistencyError(
                f"negative Milnor number {mu} from chain colengths {cs}"
            )
        return mu
    raise ComputationError(
        f"no valid recombination in {RECOMBINATION_ATTEMPTS} attempts: {last_error}"
    )
