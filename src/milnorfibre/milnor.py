"""Milnor numbers of isolated complete intersection singularity germs.

The Milnor number of a germ cut out by k functions is computed by the
Le-Greuel recursion: after a random invertible linear recombination of the
generators, mu = sum over j of (-1)^(k-j) * c_j where c_j is the colength of
the ideal spanned by the first j-1 recombined functions together with the
j x j minors of the Jacobian of the first j.  Validity of a recombination is
witnessed by every c_j being finite; a singular or unlucky draw is retried
from the same seeded stream.

check_icis tests a presentation once and returns an IcisCheck that carries
its generators and the maximal minors of their Jacobian J; milnor_icis takes
that check as its witness and runs the chain on its generators, so a caller
never tests the same ideal twice.  The chain's minors come from one pass of
the minors engine over the Jacobian of the first k-1 recombined functions
(rings.leading_minors), and its top level from the check: for the
recombination matrix A, the k x k minors of A*J are det(A) times those of J.
The last recombined function is therefore never built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .orders import local_order
from .rings import Polynomial, int_determinant, jacobian, leading_minors, minors
from .standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _staircase,
    colength,
)

RECOMBINATION_ENTRY_BOUND = 9
RECOMBINATION_ATTEMPTS = 8


def draw_recombination(size: int, rng: random.Random) -> tuple[list[list[int]], int]:
    """One invertible integer matrix with entries in [-9, 9] from the
    stream, and its determinant."""
    for _ in range(RECOMBINATION_ATTEMPTS):
        m = [
            [rng.randint(-RECOMBINATION_ENTRY_BOUND, RECOMBINATION_ENTRY_BOUND) for _ in range(size)]
            for _ in range(size)
        ]
        det = int_determinant(m)
        if det != 0:
            return m, det
    raise ComputationError(
        f"no invertible recombination found in {RECOMBINATION_ATTEMPTS} draws"
    )


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
    if any(g.evaluate_at_origin() != 0 for g in gens):
        raise InvalidIcisError("generator does not vanish at the origin")
    maximal = minors(jacobian(ring, list(gens)), k)
    value, unbounded = _staircase(list(gens) + list(maximal), local_order(ring.nvars), budgets)
    return IcisCheck(value != INFINITE, value, unbounded, tuple(gens), maximal)


def _chain_colengths(
    check: IcisCheck, matrix: list[list[int]], det: int, budgets: Budgets
) -> list[int | float]:
    """Colengths c_1..c_k of the chain of check.gens recombined by matrix,
    whose determinant is det."""
    ring = check.gens[0].ring
    order = local_order(ring.nvars)
    # step j < k takes level j of one pass over the first k-1 recombined
    # rows; step k's minors are det(A) times the check's maximal minors
    head = recombine(check.gens, matrix[:-1])
    levels = leading_minors(jacobian(ring, list(head))) if head else ()
    top = tuple(m.scale(det) for m in check.maximal_minors)
    return [
        colength(list(head[: j - 1]) + list(level), order, budgets)
        for j, level in enumerate(levels + (top,), start=1)
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
        matrix, det = draw_recombination(k, rng)
        cs = _chain_colengths(check, matrix, det, budgets)
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
