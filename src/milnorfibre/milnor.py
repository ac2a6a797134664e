"""Milnor numbers of isolated complete intersection singularity germs.

The Milnor number of a germ cut out by k functions is computed by the
Le-Greuel recursion: after a random linear recombination of the generators,
mu = sum over j of (-1)^(k-j) * c_j where c_j is the colength of the ideal
spanned by the first j-1 recombined functions together with the j x j
minors of the Jacobian of the first j.  Validity of a recombination is
witnessed by every c_j being finite; an unlucky draw is retried from the
same seeded stream.

check_icis tests a presentation once and returns an IcisCheck that carries
its generators, the rows of their Jacobian J and its leading minors from
one pass of the minors engine (rings.leading_minors): level j holds the
nonzero j x j minors of the first j rows, with their column subsets, the
top level the nonzero maximal minors.  No level stores a zero minor, so no
colength is handed a zero minor.  Given the check of all generators but the last,
check_icis keeps its rows and levels: it differentiates only the last
generator and continues the tower by one row.  So the (g, det H) check of
a job is the locus check's tower one level up.

milnor_icis takes a check as its witness, so a caller never tests the same
ideal twice.  It tries the presented order first, whose chain reads every
level from the check: when that chain is finite, each prefix of the
presented generators is an i.c.i.s.; otherwise the seeded draws follow.  A
drawn chain takes its lower levels from one pass over the Jacobian of the
first k-1 recombined functions, and its top level from the check.  So only
k-1 rows of the recombination are drawn: when every c_j is finite those
rows are independent (a dependent row makes some j x j minors vanish and
leaves c_j the colength of j-1 functions, which is infinite), so they
complete to an invertible A, and by Cauchy-Binet the k x k minors of A*J
are det(A) times those of J, which span the same ideal.

When the caller has already checked that the first k-1 generators cut out
an i.c.i.s. and knows its Milnor number, the Milnor number needs no chain:
by Le-Greuel, mu(gens) + mu(head) is the chain's top colength with the
presented head, the colength of the head plus the check's maximal minors
(top_colength), and milnor_top_step subtracts mu(head) from it.  The top
colength reads only the check, so a caller may keep it for every head.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .orders import local_order
from .rings import PolyMatrix, Polynomial, jacobian, leading_minors
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
    jacobian: PolyMatrix
    # level j: (column subset, minor) for the nonzero j x j minors of the
    # first j rows of the Jacobian, in column-lex order
    levels: tuple[tuple[tuple[tuple[int, ...], Polynomial], ...], ...]

    @property
    def maximal_minors(self) -> tuple[Polynomial, ...]:
        """The nonzero k x k minors of the Jacobian, in column-lex order: the
        top of levels."""
        return _minors_of(self.levels[-1])

    def message(self) -> str:
        if self.ok:
            return f"singular locus colength {self.colength}"
        missing = ", ".join(self.unbounded_variables)
        return f"INFINITE singular locus (unbounded in {missing})"


def _minors_of(level: tuple) -> tuple[Polynomial, ...]:
    return tuple(minor for _, minor in level)


def check_icis(
    gens: Sequence[Polynomial],
    budgets: Budgets = DEFAULT_BUDGETS,
    head: IcisCheck | None = None,
) -> IcisCheck:
    """Test that V(gens) is a complete intersection with at most an isolated
    singularity at the origin: the ideal of the generators plus the maximal
    minors of their Jacobian must have finite colength.

    A zero generator gives a zero row of the Jacobian and so no nonzero
    maximal minor: the ideal is that of the other generators, too few to
    have finite colength, and the check fails.  A presentation restricted
    to the free variables of its linear generators (decomposition) meets
    one when a generator lies in their span.

    head, when given, is the check of gens[:-1]: its Jacobian rows and
    levels are kept, and only the last generator's row is differentiated
    and expanded.  Raises ValueError when head checked other generators."""
    if not gens:
        raise InvalidIcisError("empty presentation")
    if head is not None and head.gens != tuple(gens[:-1]):
        raise ValueError("head is not the check of the generators but the last")
    ring = gens[0].ring
    k = len(gens)
    if k > ring.nvars:
        raise InvalidIcisError(
            f"{k} generators in {ring.nvars} variables cannot be a complete intersection"
        )
    if any(g.constant_coefficient() != 0 for g in gens):
        raise InvalidIcisError("generator does not vanish at the origin")
    if head is None:
        jac = jacobian(ring, list(gens))
        levels = leading_minors(jac)
    else:
        jac = PolyMatrix(ring, head.jacobian.entries() + jacobian(ring, gens[-1:]).entries())
        levels = leading_minors(jac, head.levels)
    value, unbounded = _staircase(
        list(gens) + list(_minors_of(levels[-1])), local_order(ring.nvars), budgets
    )
    return IcisCheck(value != INFINITE, value, unbounded, tuple(gens), jac, levels)


def _chain_colengths(
    check: IcisCheck, rows: list[list[int]] | None, budgets: Budgets
) -> list[int | float]:
    """Colengths c_1..c_k of the chain of check.gens recombined by the k-1
    rows of draw_recombination, or in the presented order when rows is None."""
    ring = check.gens[0].ring
    order = local_order(ring.nvars)
    if rows is None:
        head, levels = check.gens, check.levels
    else:
        # step j < k takes level j of one pass over the k-1 recombined rows;
        # step k takes the check's maximal minors, which span the same ideal
        # as those of any invertible completion of the rows (Cauchy-Binet)
        head = recombine(check.gens, rows)
        levels = leading_minors(jacobian(ring, list(head))) if head else ()
        levels += (check.levels[-1],)
    steps = (
        list(head[: j - 1]) + list(_minors_of(level)) for j, level in enumerate(levels, start=1)
    )
    # an empty first level, from a zero first row, leaves the zero ideal
    return [colength(gens, order, budgets) if gens else INFINITE for gens in steps]


def _require_icis(check: IcisCheck) -> None:
    if not check.ok:
        raise InvalidIcisError(
            f"not an isolated complete intersection: {check.message()}"
        )


def top_colength(check: IcisCheck, budgets: Budgets = DEFAULT_BUDGETS) -> int | float:
    """The top colength of the Le-Greuel chain of check.gens with the
    presented head: colength(check.maximal_minors + check.gens[:-1]).

    Raises InvalidIcisError when the check found no isolated complete
    intersection singularity.
    """
    _require_icis(check)
    ring = check.gens[0].ring
    # the minors go first: a job has substituted g's linear generators away
    # before its checks, and colength substitutes any head that is linear
    # still, so the order of the generators matters only for a head that
    # stays nonlinear, where sheared order-3 germs met a Mora blow-up with
    # the head first
    gens = list(check.maximal_minors) + list(check.gens[:-1])
    return colength(gens, local_order(ring.nvars), budgets)


def milnor_top_step(top: int | float, head_mu: int) -> int:
    """Milnor number of the germ cut out by a check's generators, where the
    caller has checked that the first k-1 of them cut out an i.c.i.s. of
    Milnor number head_mu and top is the check's top_colength:
    top - head_mu (Le-Greuel).

    Raises InconsistencyError when the colength is infinite or the Milnor
    number negative, which a true head rules out.
    """
    if top == INFINITE:
        raise InconsistencyError(
            f"infinite top colength over a head of Milnor number {head_mu}"
        )
    mu = top - head_mu
    if mu < 0:
        raise InconsistencyError(
            f"negative Milnor number {mu} from top colength {top} and head mu {head_mu}"
        )
    return mu


def milnor_icis(
    check: IcisCheck,
    seed: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Milnor number of the germ cut out by check.gens, where check is the
    check_icis outcome for those generators: milnor_icis(check_icis(gens)).

    The presented order is tried first; it is not one of the attempts.
    Raises InvalidIcisError when the check found no isolated complete
    intersection singularity, ComputationError when no valid recombination
    appears within the attempt cap.
    """
    _require_icis(check)
    k = len(check.gens)
    rng = random.Random(seed)
    drawn = (draw_recombination(k, rng) for _ in range(RECOMBINATION_ATTEMPTS))
    last_error = None
    for rows in chain([None], drawn):
        cs = _chain_colengths(check, rows, budgets)
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
