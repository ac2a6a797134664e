"""Milnor numbers of isolated complete intersection singularity germs.

The Milnor number of a germ cut out by k functions is computed by the
Le-Greuel recursion: after a random invertible linear recombination of the
generators, mu = sum over j of (-1)^(k-j) * c_j where c_j is the colength of
the ideal spanned by the first j-1 recombined functions together with the
j x j minors of the Jacobian of the first j.  Validity of a recombination is
witnessed by every c_j being finite; a singular or unlucky draw is retried
from the same seeded stream.

check_icis tests a presentation once and returns an IcisCheck that carries
its generators; milnor_icis takes that check as its witness and runs the
chain on its generators, so a caller never tests the same ideal twice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .orders import local_order
from .rings import PolyMatrix, Polynomial, int_determinant, jacobian, minors
from .standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _staircase,
    colength,
)

RECOMBINATION_ENTRY_BOUND = 9
RECOMBINATION_ATTEMPTS = 8


def draw_recombination(size: int, rng: random.Random) -> list[list[int]]:
    """One invertible integer matrix with entries in [-9, 9] from the stream."""
    for _ in range(RECOMBINATION_ATTEMPTS):
        m = [
            [rng.randint(-RECOMBINATION_ENTRY_BOUND, RECOMBINATION_ENTRY_BOUND) for _ in range(size)]
            for _ in range(size)
        ]
        if int_determinant(m) != 0:
            return m
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
    jac = jacobian(ring, list(gens))
    sing = list(gens) + list(minors(jac, k))
    value, unbounded = _staircase(sing, local_order(ring.nvars), budgets)
    return IcisCheck(value != INFINITE, value, unbounded, tuple(gens))


def _chain_colengths(
    fprime: Sequence[Polynomial], budgets: Budgets
) -> list[int | float]:
    ring = fprime[0].ring
    order = local_order(ring.nvars)
    # step j takes the first j rows, so each generator is differentiated once
    rows = jacobian(ring, list(fprime)).entries()
    out = []
    for j in range(1, len(fprime) + 1):
        ideal = list(fprime[: j - 1]) + list(minors(PolyMatrix(ring, rows[:j]), j))
        out.append(colength(ideal, order, budgets))
    return out


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
    gens = check.gens
    k = len(gens)
    rng = random.Random(seed)
    last_error = None
    for _ in range(RECOMBINATION_ATTEMPTS):
        matrix = draw_recombination(k, rng)
        fprime = recombine(gens, matrix)
        cs = _chain_colengths(fprime, budgets)
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
