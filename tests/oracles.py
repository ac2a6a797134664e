"""Test-only routes over the standard-basis engine: weak normal form,
ideal membership and ideal intersection.

The package computes none of these in a job, so they live here, as
oracles for the tests, built on the engine's private routines.  Under the
local order, Mora normal forms of small inputs can run for minutes; keep
their inputs small or their budgets tight.
"""

from typing import Sequence

from milnorfibre.orders import MonomialOrder
from milnorfibre.rings import Polynomial
from milnorfibre.standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    _Counter,
    _check_inputs,
    _ep_from_polynomial,
    _ep_to_polynomial,
    _lift,
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
