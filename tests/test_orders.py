"""Monomial orders: comparisons, additivity, elimination blocks."""

import pytest
from hypothesis import given, strategies as st

from milnorfibre.orders import (
    GLOBAL_GRADED_REVLEX,
    LOCAL_ANTIGRADED_REVLEX,
    MonomialOrder,
    elimination_order,
    global_order,
    local_order,
)
from oracles import leading_exponent

expo3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


def test_global_order_basics():
    o = global_order(2)
    assert o.is_global()
    one, x, x2, y = (0, 0), (1, 0), (2, 0), (0, 1)
    assert o.key(x) > o.key(one)
    assert o.key(x2) > o.key(x)
    assert o.key(x) > o.key(y)  # revlex tie-break at equal degree


def test_local_order_basics():
    o = local_order(2)
    assert not o.is_global()
    one, x, x2 = (0, 0), (1, 0), (2, 0)
    assert o.key(one) > o.key(x)
    assert o.key(x) > o.key(x2)


def test_local_and_global_agree_within_a_degree():
    g, l = global_order(3), local_order(3)
    a, b = (2, 0, 1), (1, 1, 1)
    assert (g.key(a) > g.key(b)) == (l.key(a) > l.key(b))


@given(expo3, expo3, expo3)
def test_key_is_additive(a, b, c):
    for order in (
        global_order(3),
        local_order(3),
        elimination_order(3, LOCAL_ANTIGRADED_REVLEX),
        elimination_order(3, GLOBAL_GRADED_REVLEX),
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
    for body in (LOCAL_ANTIGRADED_REVLEX, GLOBAL_GRADED_REVLEX):
        o = elimination_order(3, body)
        with_tag = (0, 0, 1)
        without = (9, 9, 0)
        assert o.key(with_tag) > o.key(without)


def test_elimination_body_kind():
    lo = elimination_order(2, LOCAL_ANTIGRADED_REVLEX)
    go = elimination_order(2, GLOBAL_GRADED_REVLEX)
    one, x = (0, 0), (1, 0)
    assert lo.key(one) > lo.key(x)
    assert go.key(x) > go.key(one)
    assert not lo.is_global()
    assert not go.is_global()


def test_leading_exponent():
    o = global_order(2)
    exps = [(0, 0), (1, 0), (0, 2)]
    assert leading_exponent(o, exps) == (0, 2)
    assert leading_exponent(local_order(2), exps) == (0, 0)


def test_unsupported_body_kind():
    with pytest.raises(ValueError):
        elimination_order(3, "nonsense")


def test_total_order_antisymmetry():
    o = global_order(2)
    a, b = (1, 2), (2, 1)
    assert (o.key(a) > o.key(b)) != (o.key(b) > o.key(a))
    assert not o.key(a) > o.key(a)


def test_order_nvars_guard():
    o = MonomialOrder(global_order(2).kind, 2)
    assert o.key((1, 1)) is not None
