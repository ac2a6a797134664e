"""Test-only routes over the standard-basis engine: weak normal form,
ideal membership, ideal intersection and the local staircase in all
variables; and the rank of a rational matrix.

The package computes none of these in a job, so they live here, as
oracles for the tests, built on the engine's private routines.  Under the
local order, Mora normal forms of small inputs can run for minutes; keep
their inputs small or their budgets tight.
"""

from fractions import Fraction
from typing import Sequence

from milnorfibre.orders import LOCAL_ANTIGRADED_REVLEX, MonomialOrder
from milnorfibre.rings import Polynomial
from milnorfibre.standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    _Counter,
    _bounded_staircase,
    _check_inputs,
    _ep_from_polynomial,
    _ep_to_polynomial,
    _lift,
    _standard_basis_ep,
    _tag_extension,
    _tag_free_part,
    _weak_normal_form,
    standard_basis,
)


def weak_normal_form(
    f: Polynomial,
    reducers: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Polynomial:
    """Mora weak normal form of f against the given reducers (as given, no
    completion).  Zero iff f lies in the ideal when the reducers form a
    standard basis; the result equals unit * f - combination."""
    _check_inputs([f] + list(reducers), order)
    counter = _Counter(budgets.reductions, "reduction")
    eps = [_ep_from_polynomial(g, order) for g in reducers if not g.is_zero()]
    h = _weak_normal_form(_ep_from_polynomial(f, order), eps, order, counter)
    return _ep_to_polynomial(h, f.ring)


def is_member(
    f: Polynomial,
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> bool:
    """Ideal membership via weak normal form against a standard basis."""
    if f.is_zero():
        return True
    basis = standard_basis(gens, order, budgets)
    return weak_normal_form(f, basis, order, budgets).is_zero()


def intersect_ideals(
    a: Sequence[Polynomial],
    b: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[Polynomial, ...]:
    """Intersection of two ideals by tag elimination: the tag-free part of a
    standard basis of (t*a_i, (1-t)*b_j) under a tag-dominant block order."""
    ring = _check_inputs(list(a) + list(b), order)
    big, elim = _tag_extension(ring, order, "intersection")
    lifted = [_lift(p, big, 1) for p in a if not p.is_zero()]
    for q in b:
        if q.is_zero():
            continue
        # (1 - t) * q
        lifted.append(_lift(q, big, 0) - _lift(q, big, 1))
    if not lifted:
        return (ring.zero(),)
    return _tag_free_part(lifted, elim, ring, budgets)


def unreduced_staircase(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[int | float, tuple[str, ...]]:
    """The local staircase with no linear generator substituted away: after
    the unit rule, the leads of a standard basis truncated at the highest
    corner, completed in every variable of the ring.  Returns the colength
    and the unbounded variables, as _staircase does."""
    ring = _check_inputs(gens, order)
    if order.kind != LOCAL_ANTIGRADED_REVLEX:
        raise ValueError("the unreduced staircase needs the local order")
    if any(g.constant_coefficient() for g in gens):
        return 0, ()
    eps = [_ep_from_polynomial(g, order) for g in gens]
    leads = [g.lead for g in _standard_basis_ep(eps, order, budgets, highest_corner=True)]
    return _bounded_staircase(leads, ring.variables)


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over Q, every row reduced at each
    pivot."""
    work = [list(map(Fraction, row)) for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [x / pv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank
