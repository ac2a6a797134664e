"""Monomial orders: comparisons, additivity, elimination blocks.

The package's orders are the local order and its elimination order; the
graded (global) order of tests/oracles.py, which the tests' Groebner-basis
checks run the engine under, is checked here beside them."""

import pytest
from hypothesis import given, strategies as st

from milnorfibre.orders import (
    ELIM_LAST_LOCAL_BODY,
    LOCAL_ANTIGRADED_REVLEX,
    MonomialOrder,
    elimination_order,
    local_order,
)
from oracles import GradedOrder, leading_exponent

expo3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


def test_global_order_basics():
    o = GradedOrder(2)
    one, x, x2, y = (0, 0), (1, 0), (2, 0), (0, 1)
    assert o.key(x) > o.key(one)
    assert o.key(x2) > o.key(x)
    assert o.key(x) > o.key(y)  # revlex tie-break at equal degree


def test_local_order_basics():
    o = local_order(2)
    assert o.kind == LOCAL_ANTIGRADED_REVLEX
    one, x, x2 = (0, 0), (1, 0), (2, 0)
    assert o.key(one) > o.key(x)
    assert o.key(x) > o.key(x2)


def test_local_and_global_agree_within_a_degree():
    g, l = GradedOrder(3), local_order(3)
    a, b = (2, 0, 1), (1, 1, 1)
    assert (g.key(a) > g.key(b)) == (l.key(a) > l.key(b))


@given(expo3, expo3, expo3)
def test_key_is_additive(a, b, c):
    for order in (
        GradedOrder(3),
        local_order(3),
        elimination_order(3),
        GradedOrder(3, eliminate_last=True),
    ):
        ka = order.key(a)
        kb = order.key(b)
        kab = order.key(tuple(x + y for x, y in zip(a, b)))
        assert kab == tuple(x + y for x, y in zip(ka, kb))
        # additivity makes multiplication monotone
        if ka > kb:
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) > order.key(bc)


def test_elimination_order_tag_dominates():
    for o in (elimination_order(3), GradedOrder(3, eliminate_last=True)):
        with_tag = (0, 0, 1)
        without = (9, 9, 0)
        assert o.key(with_tag) > o.key(without)


def test_elimination_body_kind():
    """elimination_order(n) is the block order whose body is the local
    order: the tag exponent first, then minus the body degree, then the
    local revlex tie-break."""
    lo = elimination_order(2)
    assert lo == MonomialOrder(ELIM_LAST_LOCAL_BODY, 2)
    assert lo.kind == "eliminate_last_then_local"
    one, x = (0, 0), (1, 0)
    assert lo.key(one) > lo.key(x)
    assert GradedOrder(2, eliminate_last=True).key(x) > GradedOrder(2, eliminate_last=True).key(one)
    for expo in ((0, 0, 0), (2, 1, 0), (1, 0, 3), (0, 4, 2)):
        assert elimination_order(3).key(expo) == (expo[2], *local_order(2).key(expo[:2]))


def test_leading_exponent():
    o = GradedOrder(2)
    exps = [(0, 0), (1, 0), (0, 2)]
    assert leading_exponent(o, exps) == (0, 2)
    assert leading_exponent(local_order(2), exps) == (0, 0)


def test_unsupported_body_kind():
    """MonomialOrder knows only the local kinds: it refuses the names of the
    global ones like any unknown kind."""
    for kind in ("global_graded_revlex", "eliminate_last_then_global", "nonsense"):
        with pytest.raises(ValueError, match="unknown order kind"):
            MonomialOrder(kind, 3)


def test_total_order_antisymmetry():
    o = local_order(2)
    a, b = (1, 2), (2, 1)
    assert (o.key(a) > o.key(b)) != (o.key(b) > o.key(a))
    assert not o.key(a) > o.key(a)


def test_order_nvars_guard():
    assert MonomialOrder(local_order(2).kind, 2).key((1, 1)) == (-2, -1, -1)
    with pytest.raises(ValueError, match="at least one variable"):
        local_order(0)
    with pytest.raises(ValueError, match="a block and a tag variable"):
        elimination_order(1)
