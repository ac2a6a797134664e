"""Standard bases, normal forms, colength, the highest corner, intersection,
saturation.

Every nontrivial frozen value here is cross-checked by an independent
route stated next to it: a truncated-series computation, divisibility logic
for monomial ideals, a count the reader can do by hand on a staircase, or a
slower second algorithm kept here as an oracle (a min-scan completion,
saturation by iterated ideal quotients, saturation as the intersection
of one elimination per divisor and saturation in a ring with a named tag
variable, and the local staircase completed in every variable for the
route that substitutes linear generators away).  The min-scan completion
runs on the monic route over Q, which the integer engine must follow step
by step.  That route's normal form, and membership, the leads of a basis,
intersection, the tag-ring saturation and that staircase, come from
tests/oracles.py, which builds them on the engine's private routines, as it
builds standard_basis, the untruncated basis, and the graded (global)
order, under which the engine's Groebner bases are checked.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from milnorfibre import standard_basis as sb
from milnorfibre.errors import BudgetExceededError
from milnorfibre.milnor import check_icis
from milnorfibre.orders import LOCAL_ANTIGRADED_REVLEX, elimination_order, local_order
from milnorfibre.rings import Polynomial, Ring, monomial_divides, parse_polynomial
from milnorfibre.standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _EP,
    _Counter,
    _ep_from_polynomial,
    _ep_primitive,
    _ep_spoly,
    _ep_sub_shifted,
    _ep_to_polynomial,
    _minimalize,
    _standard_basis_ep,
    _staircase,
    _weak_normal_form,
    colength,
    saturate,
)
from oracles import (
    GradedOrder,
    _ep_monic,
    _inverse,
    basis_colength,
    exact_ep,
    exact_polynomial,
    intersect_ideals,
    is_member,
    leading_exponent,
    leading_exponents,
    monic_spoly,
    monic_weak_normal_form,
    standard_basis,
    tag_ring_saturation,
    unreduced_staircase,
    weak_normal_form,
)

R1 = Ring(("x",))
R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def p(text, ring=R2):
    return parse_polynomial(text, ring)


small_coeffs = st.integers(-3, 3).filter(lambda c: c != 0)


@st.composite
def sparse_polys(draw, ring=R2, max_terms=3, max_exp=3):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * ring.nvars),
            small_coeffs.map(Fraction),
            min_size=1,
            max_size=max_terms,
        )
    )
    return Polynomial(ring, terms)


# --- normal forms --------------------------------------------------------

def normal_form(f, reducers, order):
    """Test-only: weak normal form, then tail reduction, so that no term is
    divisible by a reducer lead.  Under a global order this is the canonical
    remainder; under a local order it is zero exactly when f lies in the
    ideal of a standard basis."""
    out = f.ring.zero()
    h = weak_normal_form(f, reducers, order)
    while not h.is_zero():
        lead = leading_exponent(order, h.terms)
        term = Polynomial(f.ring, {lead: h.coefficient(lead)})
        out = out + term
        h = weak_normal_form(h - term, reducers, order)
    return out


def test_global_normal_form_is_canonical():
    basis = standard_basis([p("x^2 - y"), p("y^2 - 1")], GradedOrder(2))
    f, g = p("x^4 + y"), p("x^2*y + 1")
    # linearity over a fixed Groebner basis characterizes the reduced NF
    nf = lambda q: normal_form(q, basis, GradedOrder(2))
    assert nf(f + g) == nf(f) + nf(g)
    assert nf(f - nf(f)) == R2.zero()


def test_local_membership_via_truncated_series():
    """x + x^2 lies in (x + x^3): the quotient is the unit series
    (1 + x)/(1 + x^2) = 1 + x - x^2 - x^3 + x^4 + x^5 - ... (period-4 signs).
    The engine must agree that the normal form vanishes, and the series
    identity is checked independently by truncation to degree 10."""
    f, g = p("x + x^2", R1), p("x + x^3", R1)
    assert normal_form(f, [g], local_order(1)) == R1.zero()

    x = R1.variable("x")
    series = R1.zero()
    sign_pattern = [1, 1, -1, -1]
    for k in range(0, 11):
        series = series + R1.constant(sign_pattern[k % 4]) * x**k
    residue = f - series * g
    assert min(sum(expo) for expo in residue.terms) > 10


def test_local_vs_global_membership_of_unit_multiple():
    f, g = p("x", R1), p("x - x^2", R1)
    assert is_member(f, [g], local_order(1))
    assert not is_member(f, [g], GradedOrder(1))


@given(st.lists(sparse_polys(), min_size=1, max_size=3), st.data())
@settings(max_examples=30)
def test_membership_of_constructed_combinations(gens, data):
    combo = R2.zero()
    for g in gens:
        factor = data.draw(sparse_polys(max_terms=2, max_exp=2))
        combo = combo + factor * g
    for order in (GradedOrder(2), local_order(2)):
        assert is_member(combo, gens, order)


def test_monomial_non_membership():
    gens = [p("x^2"), p("x*y^2")]
    # for monomial ideals membership is divisibility, decidable by eye
    assert not is_member(p("y^3"), gens, local_order(2))
    assert not is_member(p("x*y"), gens, local_order(2))
    assert is_member(p("x^3*y"), gens, local_order(2))


# --- standard bases -------------------------------------------------------

@given(st.lists(sparse_polys(max_terms=2, max_exp=3), min_size=1, max_size=3))
@settings(max_examples=25)
def test_criteria_do_not_change_lead_ideal(gens):
    """Buchberger criteria are a pruning optimization only: the criteria-free
    completion of the min-scan oracle has the same lead ideal."""
    for order in (GradedOrder(2), local_order(2)):
        with_c = standard_basis(gens, order)
        without, _, _ = _min_scan_standard_basis(gens, order, use_criteria=False)
        assert set(leading_exponents(with_c, order)) == set(
            leading_exponents(without, order)
        )


def _min_scan_standard_basis(
    gens,
    order,
    budgets=DEFAULT_BUDGETS,
    use_criteria=True,
    stop_at_unit=True,
    highest_corner=False,
):
    """Test-only oracle: Buchberger completion over Q with monic elements,
    on the monic route of tests/oracles.py, that picks each S-pair by a min
    over every pending pair, keyed (lcm degree, i, j), and reads leads off
    the terms instead of the cached lead data.  With stop_at_unit it
    returns the first element of lead 1 as soon as there is one; with
    highest_corner, under the local degree order only, it drops the terms
    of degree >= D once the leads hold a pure power of every variable.
    Returns the basis and the reduction steps and S-pairs it took."""
    counter = _Counter(budgets.reductions, "reduction")
    pair_counter = _Counter(budgets.basis, "basis pair")
    G = [_ep_monic(exact_ep(g, order)) for g in gens if not g.is_zero()]
    ring = gens[0].ring

    def lead(g):
        return g.terms[0][1]

    def result(basis):
        return tuple(exact_polynomial(g, ring) for g in basis), counter.used, pair_counter.used

    def unit():
        """The first element of lead 1 as a basis, when stop_at_unit."""
        units = [g for g in G if not any(lead(g))] if stop_at_unit else []
        return result(units[:1]) if units else None

    def corner():
        """D for the leads so far, or None while some variable has no pure
        power among them."""
        pure = [
            min((sum(lead(g)) for g in G if lead(g)[i] == sum(lead(g))), default=None)
            for i in range(order.nvars)
        ]
        return None if None in pure else sum(pure) - len(pure) + 1

    if found := unit():
        return found

    def pair_lcm(a, b):
        return tuple(max(x, y) for x, y in zip(lead(a), lead(b)))

    pending = {
        (i, j): pair_lcm(G[i], G[j]) for i in range(len(G)) for j in range(i + 1, len(G))
    }
    while pending:
        i, j = min(pending, key=lambda p: (sum(pending[p]), p))
        lcm = pending.pop((i, j))
        if use_criteria:
            if any(
                k not in (i, j)
                and monomial_divides(lead(G[k]), lcm)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k in range(len(G))
            ):
                continue
        pair_counter.spend()
        cut = corner() if highest_corner else None
        s = monic_spoly(G[i], G[j], order, cut)
        h = monic_weak_normal_form(s, G, order, counter, cut)
        if h.terms:
            G.append(_ep_monic(h))
            if found := unit():
                return found
            new = len(G) - 1
            for k in range(new):
                pending[(k, new)] = pair_lcm(G[k], G[new])
    return result(_minimalize(G))


# the package's two orders and the graded order of the oracles, with its
# elimination order: the engine reads only their keys
ORDER_MAKERS = (
    GradedOrder,
    local_order,
    elimination_order,
    lambda n: GradedOrder(n, eliminate_last=True),
)
ALL_ORDERS_3 = tuple(make(3) for make in ORDER_MAKERS)


@given(st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=1, max_size=3))
@settings(max_examples=30)
def test_heap_queue_matches_min_scan_oracle(gens):
    """The heap pair queue of the integer engine takes the pairs in the
    order of the monic min-scan oracle, so the bases are the same tuples of
    polynomials, reached with the same reduction steps and S-pairs.  The budget bounds the Mora blow-ups that some draws meet
    under the local order, such as (-3*x*y^2*z^2 + 3*y^2*z^2 - 3*x^2*z,
    -y*z^2 + 3*z^2 + 3*y, 2*x^2*y^2*z^2 - 2*x^2 - 3*y^2): both routes must
    trip it with the same message."""
    budgets = Budgets(reductions=400)
    for order in ALL_ORDERS_3:
        assert _integer_route(gens, order, budgets) == _monic_route(gens, order, budgets)


def _outcome(route, gens, order, budgets):
    try:
        return route(gens, order, budgets)
    except BudgetExceededError as exc:
        return str(exc)


@given(st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=2, max_size=3))
@settings(max_examples=20)
def test_heap_queue_trips_budgets_like_min_scan_oracle(gens):
    """At small budgets both routes raise BudgetExceededError, with the same
    message, or both return the same basis with the same counts."""
    for order in ALL_ORDERS_3:
        for budgets in (Budgets(basis=1), Budgets(basis=2), Budgets(basis=3), Budgets(reductions=6)):
            assert _integer_route(gens, order, budgets) == _monic_route(gens, order, budgets)


def _assert_cached_lead_data(ep, order):
    if not ep.terms:
        assert ep.lead is None and ep.ecart is None
        return
    keys = [k for k, _, _ in ep.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(k == order.key(e) for k, e, _ in ep.terms)
    top = max(sum(e) for _, e, _ in ep.terms)
    assert ep.lead == ep.terms[0][1]
    assert ep.maxdeg == top
    assert ep.ecart == top - sum(ep.lead)


def _monomial(ring, e):
    return Polynomial(ring, {e: 1})


@given(
    sparse_polys(R3, max_terms=4),
    sparse_polys(R3, max_terms=4),
    st.tuples(*[st.integers(0, 2)] * 3),
    small_coeffs,
    small_coeffs,
    st.sampled_from(ALL_ORDERS_3),
)
def test_engine_operations_keep_cached_lead_data(f, g, shift, ma, mb, order):
    """Lead exponent and ecart cached at construction match the values
    recomputed from the terms after every engine operation, and the merge
    ma * a - mb * x^shift * b is the product in Polynomial arithmetic."""
    a, b = _ep_from_polynomial(f, order), _ep_from_polynomial(g, order)
    merged = _ep_sub_shifted(a.terms, ma, mb, order.key(shift), shift, b.terms)
    assert exact_polynomial(merged, R3) == f.scale(ma) - _monomial(R3, shift) * g.scale(mb)
    results = [
        a,
        _ep_primitive(a),
        merged,
        _ep_spoly(_ep_primitive(a), _ep_primitive(b), order),
        _ep_spoly(a, b, order),
        # a - a cancels to the zero polynomial
        _ep_sub_shifted(a.terms, 1, 1, order.key((0, 0, 0)), (0, 0, 0), a.terms),
    ]
    for ep in results:
        _assert_cached_lead_data(ep, order)
        assert all(type(c) is int for _, _, c in ep.terms)
    assert not results[-1].terms


def _spoly_by_products(a, b, ring, cut):
    """The S-polynomial (lb/d)*x^(l-ea)*a - (la/d)*x^(l-eb)*b in Polynomial
    arithmetic, every term of a and b multiplied out, leads included, and
    without the terms of degree >= cut when cut is set."""
    (_, ea, la), (_, eb, lb) = a.terms[0], b.terms[0]
    lcm = tuple(map(max, ea, eb))
    d = gcd(la, lb)
    shift_a = _monomial(ring, tuple(x - y for x, y in zip(lcm, ea)))
    shift_b = _monomial(ring, tuple(x - y for x, y in zip(lcm, eb)))
    s = (shift_a * exact_polynomial(a, ring)).scale(lb // d) - (
        shift_b * exact_polynomial(b, ring)
    ).scale(la // d)
    if cut is not None:
        s = Polynomial(ring, {e: c for e, c in s.items() if sum(e) < cut})
    return s


@given(
    sparse_polys(R3, max_terms=4),
    sparse_polys(R3, max_terms=4),
    st.sampled_from(ALL_ORDERS_3),
    st.one_of(st.none(), st.integers(1, 7)),
)
@example(p("2*x^2", R3), p("-3*x*y", R3), GradedOrder(3), None)
@example(p("2*x^2 + y", R3), p("3*x*y", R3), local_order(3), 3)
def test_spoly_merges_the_tails_like_the_full_products(f, g, order, cut):
    """The tail-only S-polynomial against the full products, leads included,
    with and without the cut (under the local degree order only, where it
    applies); two one-term elements give zero."""
    if order.kind != LOCAL_ANTIGRADED_REVLEX:
        cut = None
    for a, b in ((f, g), (g, f)):
        ea, eb = _ep_from_polynomial(a, order), _ep_from_polynomial(b, order)
        s = _ep_spoly(ea, eb, order, cut)
        assert exact_polynomial(s, R3) == _spoly_by_products(ea, eb, R3, cut)
        assert all(type(c) is int for _, _, c in s.terms)
        _assert_cached_lead_data(s, order)
        if len(ea.terms) == len(eb.terms) == 1:
            assert s.terms == ()


def test_spoly_of_one_term_elements_reads_no_order():
    """The leads of two one-term elements cancel, and nothing else is left:
    the S-polynomial is zero before any order key is computed, so it takes
    no order at all."""
    order = local_order(2)
    a, b = (_ep_from_polynomial(p(t), order) for t in ("2*x^2", "-3*x*y"))
    assert _ep_spoly(a, b, None) is _ep_spoly(b, a, None) is sb._EP_ZERO


def test_standard_basis_contains_spolynomial_closure():
    basis = standard_basis([p("x^2 + y"), p("x*y + x")], GradedOrder(2))
    # y^2 + y = y*(x^2 + y) - x*(x*y + x) + (x^2 + y)  must reduce to 0
    f = p("y^2 + y")
    assert normal_form(f, basis, GradedOrder(2)) == R2.zero()


# --- exact division by non-monic leads -----------------------------------
# The engine keeps every coefficient an int: it clears the denominators of
# its inputs, divides only by gcds and makes its outputs monic once, at the
# end.  The monic route over Q in tests/oracles.py divides through _inverse
# at every step (int / int would make a float); the integer engine must give
# its bases, with the same reductions, pairs and budget trips.


def _monic_route(gens, order, budgets, highest_corner=False):
    """The min-scan oracle's monic basis and counts, or its budget-trip
    message."""
    try:
        return _min_scan_standard_basis(gens, order, budgets, highest_corner=highest_corner)
    except BudgetExceededError as exc:
        return str(exc)


class _RecordingCounter(_Counter):
    """A _Counter that keeps every instance made, so that a test can read
    the reductions and pairs a completion spent."""

    made: list = []

    def __init__(self, limit, what):
        super().__init__(limit, what)
        _RecordingCounter.made.append(self)


def _integer_route(gens, order, budgets, highest_corner=False):
    """The engine's monic basis and the reductions and pairs it spent, or
    its budget-trip message."""
    _RecordingCounter.made = []
    with mock.patch.object(sb, "_Counter", _RecordingCounter):
        eps = [_ep_from_polynomial(g, order) for g in gens]
        try:
            basis = _standard_basis_ep(eps, order, budgets, highest_corner)
        except BudgetExceededError as exc:
            return str(exc)
    reductions, pairs = (c.used for c in _RecordingCounter.made)
    return tuple(_ep_to_polynomial(g, gens[0].ring) for g in basis), reductions, pairs


def assert_exact(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_inverse_is_exact():
    assert _inverse(1) == 1 and type(_inverse(1)) is int
    assert _inverse(-1) == -1 and type(_inverse(-1)) is int
    assert _inverse(2) == Fraction(1, 2) and type(_inverse(2)) is Fraction
    assert _inverse(Fraction(-2, 3)) == Fraction(-3, 2)


@pytest.mark.parametrize(
    "order, wnf, basis, length",
    [
        (GradedOrder(2), "-1/12*y", ("y^2 + 1/3*x", "x - 1/2*y"), 2),
        # 3*y^2 + x leads with x, and y*(1 + 6*y) lies in the ideal
        (local_order(2), "1/2*y^2", ("x - 1/2*y", "6*y^2 + y"), 1),
    ],
)
def test_engine_divides_exactly_by_non_monic_leads(order, wnf, basis, length):
    """By hand under the global order: x*y - y*(2*x - y)/2 = y^2/2, then
    y^2/2 - (3*y^2 + x)/6 = -x/6, then -x/6 + (2*x - y)/12 = -y/12.  The
    monic route's normal form is that; the engine's is an integer multiple
    of it, and its bases are monic and exact.  colength takes only the
    local order; the graded one's is read off its basis."""
    colength_of = colength if order.kind == LOCAL_ANTIGRADED_REVLEX else basis_colength
    reducers = [p("2*x - y"), p("3*y^2 + x")]
    f = p("x*y")
    h = weak_normal_form(f, reducers, order)
    sb_ = standard_basis(reducers, order)
    assert h == p(wnf)
    assert sb_ == tuple(p(t) for t in basis)
    assert colength_of(reducers, order) == length
    for q in (h,) + sb_:
        assert_exact(q)
    for b in sb_:
        assert b.coefficient(leading_exponent(order, b.terms)) == 1
    # the engine's normal form, with int coefficients only
    counter = _Counter(DEFAULT_BUDGETS.reductions, "reduction")
    eps = [_ep_from_polynomial(g, order) for g in reducers]
    h_int = _weak_normal_form(_ep_from_polynomial(f, order), eps, order, counter)
    assert all(type(c) is int for _, _, c in h_int.terms)
    lead = leading_exponent(order, h.terms)
    assert exact_polynomial(h_int, R2) == h.scale(h_int.terms[0][2] / h.coefficient(lead))
    # and with the generators scaled by a non-integral unit, which the
    # engine takes as the integer multiples 4*x - 2*y and 2*y^2 + 2/3*x
    scaled = [g.scale(Fraction(2, 3)) for g in reducers]
    for g, q in zip(reducers, scaled):
        assert _ep_primitive(_ep_from_polynomial(q, order)).terms == _ep_from_polynomial(g, order).terms
    assert weak_normal_form(f, scaled, order) == h
    assert standard_basis(scaled, order) == sb_
    assert colength_of(scaled, order) == length
    assert _integer_route(scaled, order, DEFAULT_BUDGETS) == _monic_route(
        scaled, order, DEFAULT_BUDGETS
    )


non_integral_units = st.fractions(-5, 5, max_denominator=7).filter(
    lambda q: q != 0 and q.denominator != 1
)


@given(
    st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=1, max_size=3),
    st.lists(non_integral_units, min_size=3, max_size=3),
)
@example(
    [
        p("-3*x*y^2*z^2 + 3*y^2*z^2 - 3*x^2*z", R3),
        p("-y*z^2 + 3*z^2 + 3*y", R3),
        p("2*x^2*y^2*z^2 - 2*x^2 - 3*y^2", R3),
    ],
    [Fraction(1, 2)] * 3,
)
@settings(max_examples=30)
def test_int_coefficients_match_fraction_route(gens, units):
    """Integer generators with non-monic leads give the bases that the same
    generators scaled by non-integral units give, and the monic route over
    Q gives both: exact and never float.  The local blow-up of
    test_heap_queue_matches_min_scan_oracle trips the budget on every
    route, with the same message."""
    budgets = Budgets(reductions=400)
    scaled = [g.scale(u) for g, u in zip(gens, units)]
    for order in ALL_ORDERS_3:
        got = _outcome(standard_basis, gens, order, budgets)
        assert got == _outcome(standard_basis, scaled, order, budgets)
        oracle = _monic_route(gens, order, budgets)
        assert got == (oracle if isinstance(oracle, str) else oracle[0])
        if not isinstance(got, str):
            for b in got:
                assert_exact(b)


@st.composite
def engine_inputs(draw):
    """1-3 sparse generators in 3 variables, integral or scaled by
    non-integral units, an order of every kind, the highest corner now and
    then under the local order, and small budgets of both kinds."""
    gens = draw(st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens = [g.scale(draw(non_integral_units)) for g in gens]
    order = draw(st.sampled_from(ALL_ORDERS_3))
    corner = order.kind == LOCAL_ANTIGRADED_REVLEX and draw(st.booleans())
    budgets = draw(
        st.sampled_from(
            [Budgets(reductions=r) for r in (3, 20, 150)] + [Budgets(basis=b) for b in (1, 2, 3)]
        )
    )
    return gens, order, corner, budgets


@given(engine_inputs())
@example(([p("2*x^2*y^3 - 2*x^2", R3), p("-2*x^3*y^2 + 3*x*y^2 + y^3", R3)], local_order(3), True, Budgets(reductions=150)))
@settings(max_examples=150, deadline=None)
def test_integer_engine_takes_the_steps_of_the_monic_route(inputs):
    """The integer engine against the monic route over Q, under every order
    kind, with and without the highest corner: the same monic basis, the
    same count of reduction steps and of S-pairs, or the same
    BudgetExceededError at the same budget."""
    gens, order, corner, budgets = inputs
    assert _integer_route(gens, order, budgets, corner) == _monic_route(
        gens, order, budgets, corner
    )


class _RecordingEP(_EP):
    """An _EP that keeps every instance made."""

    made: list = []

    def __init__(self, terms, maxdeg=None):
        super().__init__(terms, maxdeg)
        _RecordingEP.made.append(self)


@given(engine_inputs())
@settings(max_examples=60, deadline=None)
def test_completion_keeps_int_coefficients_and_primitive_elements(inputs):
    """Every engine polynomial the completion builds has int coefficients,
    and every element that enters its basis is primitive with a positive
    lead, as is every element it returns."""
    gens, order, corner, budgets = inputs
    entered = []
    primitive = sb._ep_primitive

    def recording_primitive(ep):
        entered.append(primitive(ep))
        return entered[-1]

    _RecordingEP.made = []
    with mock.patch.object(sb, "_EP", _RecordingEP), mock.patch.object(
        sb, "_ep_primitive", recording_primitive
    ):
        eps = [_ep_from_polynomial(g, order) for g in gens]
        try:
            basis = _standard_basis_ep(eps, order, budgets, corner)
        except BudgetExceededError:
            basis = []
    assert _RecordingEP.made
    for ep in _RecordingEP.made:
        assert all(type(c) is int for _, _, c in ep.terms)
    for ep in entered + basis:
        assert ep.terms[0][2] > 0
        assert gcd(*(c for _, _, c in ep.terms)) == 1


# --- colength -------------------------------------------------------------

def test_colength_examples():
    # staircase of (x^2, y^3): monomials 1, x, y, xy, y^2, xy^2
    assert colength([p("x^2"), p("y^3")], local_order(2)) == 6
    # A_3 plane curve x^4 + y^2: Jacobian ideal (x^3, y), colength 3
    assert colength([p("x^3"), p("y")], local_order(2)) == 3
    assert colength([p("x*y")], local_order(2)) == INFINITE
    # 1 - x is a unit of the local ring only: the graded order keeps the
    # point x = 1 of Q[x, y] / (x - x^2, y)
    assert colength([p("x - x^2"), p("y")], local_order(2)) == 1
    assert basis_colength([p("x - x^2"), p("y")], GradedOrder(2)) == 2


def test_colength_nonmonomial_matches_hand_count():
    # (x^2 + y^2, x*y): standard basis adds y^3; staircase 1, x, y, y^2
    assert colength([p("x^2 + y^2"), p("x*y")], local_order(2)) == 4


def test_colength_budget():
    """(x^2 + y^2, x*y) reduces two S-pairs: the first gives y^3, and
    (x*y, y^3) reduces to zero; the chain criterion skips (x^2 + y^2, y^3),
    since x*y divides their lcm and its pairs with both are done.  A basis
    budget of 1 aborts at the second."""
    gens = [p("x^2 + y^2"), p("x*y")]
    assert colength(gens, local_order(2), Budgets(basis=2)) == 4
    with pytest.raises(BudgetExceededError) as info:
        colength(gens, local_order(2), Budgets(basis=1))
    assert str(info.value) == (
        "basis pair budget exhausted (1); raise the budget to continue"
    )


@pytest.mark.parametrize("N", [12, 20])
def test_colength_of_pure_powers_and_mixed_products(N):
    """(x_i^N, x_i*x_j for i < j) leaves the staircase 1 and x_i^e for
    1 <= e < N: 1 + n*(N - 1) monomials, although the box spanned by the
    pure powers holds N^n cells."""
    n = 6
    ring = Ring(tuple(f"x{i}" for i in range(1, n + 1)))

    def monomial(*powers):
        e = [0] * n
        for i, k in powers:
            e[i] += k
        return Polynomial(ring, {tuple(e): Fraction(1)})

    gens = [monomial((i, N)) for i in range(n)]
    gens += [monomial((i, 1), (j, 1)) for i in range(n) for j in range(i + 1, n)]
    assert colength(gens, local_order(n)) == 1 + n * (N - 1)


def test_local_colength_budget_keeps_its_message():
    """The highest corner saves reduction steps, but a budget below what the
    truncated computation needs still aborts it, with the usual message."""
    gens = [p("x^5 + x*y^2"), p("x^2*y + y^3 + x^4")]
    assert colength(gens, local_order(2)) == 11
    with pytest.raises(BudgetExceededError) as info:
        colength(gens, local_order(2), Budgets(reductions=5))
    assert str(info.value) == (
        "reduction budget exhausted (5); raise the budget to continue"
    )


# --- unit ideals ------------------------------------------------------------

def _count_engine_polynomials(monkeypatch):
    built = []
    original = sb._ep_from_polynomial
    monkeypatch.setattr(
        sb, "_ep_from_polynomial", lambda f, order: built.append(f) or original(f, order)
    )
    return built


@pytest.mark.parametrize(
    "texts",
    [
        ("1 + x",),
        ("x*y", "y^2", "1 + x"),
        ("0", "x*y", "0", "-2/3 + y^2"),
        ("x^2 - y^3", "x^5 + 7"),
    ],
)
def test_unit_ideal_has_colength_zero_without_a_basis(texts, monkeypatch):
    """Under the local order a generator with a nonzero constant term is a
    unit, wherever it stands among the generators and zeros: colength 0 and
    no unbounded variable, before any engine polynomial is built."""
    gens = [p(t) for t in texts]
    order = local_order(2)
    built = _count_engine_polynomials(monkeypatch)
    assert _staircase(gens, order, DEFAULT_BUDGETS) == (0, ())
    assert colength(gens, order) == 0
    assert built == []
    # the untruncated basis gives the same answer the long way, its leads
    # read from engine polynomials
    assert colength(gens, order, basis=standard_basis(gens, order)) == 0
    assert built
    # a global order keeps the completion: 1 + x is no unit there, and
    # Q[x, y] / (1 + x, y) is Q
    assert basis_colength([p("1 + x"), p("y")], GradedOrder(2)) == 1


def test_check_icis_of_a_linear_locus_takes_the_unit_short_cut(monkeypatch):
    """The maximal minor of a linear locus's Jacobian is a constant, so the
    check's ideal holds a unit: colength 0, no unbounded variable."""
    ring = Ring(("x1", "x2", "x3", "x4", "x5"))
    gens = [p(t, ring) for t in ("x1 + x3^2", "x2 - x4*x5")]
    built = _count_engine_polynomials(monkeypatch)
    check = check_icis(gens)
    assert (check.ok, check.colength, check.unbounded_variables) == (True, 0, ())
    assert built == []
    assert any(m.constant_coefficient() for m in check.maximal_minors)


def test_unit_ideal_fits_a_budget_of_one_pair():
    """Three or more nonzero generators with a unit among them used to run
    the pair loop and trip Budgets(basis=1); the unit short-cut needs no pair.
    A unit-free ideal still trips it."""
    order = local_order(2)
    for texts in [("x*y", "y^2", "1 + x"), ("y - x^2", "x*y", "3 + y"), ("x", "y", "0", "1 + x")]:
        assert colength([p(t) for t in texts], order, Budgets(basis=1)) == 0
    with pytest.raises(BudgetExceededError):
        colength([p("x^2 + y^3"), p("x*y"), p("y^4 + x^3")], order, Budgets(basis=1))


def test_completion_stops_at_a_unit():
    """An element of lead 1 ends the completion: it is the minimal standard
    basis.  The pinned local ideal holds the unit y*z + 1, and the
    completion that runs on past it passes 400 reductions in a Mora blow-up;
    under a global order (x, x + 1) meets the unit -1 in its first
    S-polynomial, and a saturation to the whole ring meets it in its
    elimination."""
    gens = [p(t, R3) for t in ("y^2*z + z^2 + z", "y*z + 1", "x^2*y^2 + z")]
    order, budgets = local_order(3), Budgets(reductions=400)
    assert standard_basis(gens, order, budgets) == (p("y*z + 1", R3),)
    with pytest.raises(BudgetExceededError):
        _min_scan_standard_basis(gens, order, budgets, stop_at_unit=False)
    assert standard_basis([p("x"), p("x + 1")], GradedOrder(2), Budgets(basis=1)) == (p("1"),)
    # (x^2, y) : x^inf is the whole ring: the elimination meets a lead 1 at
    # its fifth S-pair, and the completion that runs on forms two more
    budgets = Budgets(basis=5)
    assert saturate([p("x^2"), p("y")], [p("x")], local_order(2), budgets) == ((p("1"),), 1)


@st.composite
def local_ideals_with_units(draw):
    """1-4 sparse generators in 2 or 3 variables, each with a constant term
    now and then, and zeros among them."""
    ring = draw(st.sampled_from((R2, R3)))
    pool = st.one_of(
        sparse_polys(ring, max_terms=3, max_exp=2),
        st.just(ring.zero()),
        st.builds(
            lambda f, c: f + ring.constant(c), sparse_polys(ring, max_terms=2, max_exp=2), small_coeffs
        ),
    )
    return draw(st.lists(pool, min_size=1, max_size=4))


@given(local_ideals_with_units())
@example([p("x*y"), p("y^2"), p("1 + x")])
@example([R2.zero(), p("x^2"), p("y^3")])
@settings(max_examples=100, deadline=None)
def test_local_colength_matches_untruncated_basis_with_units(gens):
    """Every local colength, unit ideals included, against the colength read
    off the untruncated standard basis; the budget bounds the Mora blow-ups
    of some random inputs."""
    order = local_order(gens[0].ring.nvars)
    budgets = Budgets(reductions=300)
    try:
        expected = colength(gens, order, basis=standard_basis(gens, order, budgets))
    except BudgetExceededError:
        return
    assert colength(gens, order, budgets) == expected


@given(local_ideals_with_units(), st.sampled_from(ORDER_MAKERS))
@settings(max_examples=60, deadline=None)
def test_unit_stop_matches_the_completion_that_runs_on(gens, make_order):
    """Under every order kind, where the completion that runs on past a
    lead 1 finishes, its minimal basis is what the stopped completion
    returns."""
    order = make_order(gens[0].ring.nvars)
    budgets = Budgets(reductions=300)
    try:
        expected, _, _ = _min_scan_standard_basis(gens, order, budgets, stop_at_unit=False)
    except BudgetExceededError:
        return
    assert standard_basis(gens, order, budgets) == expected


# --- highest corner ---------------------------------------------------------

def test_highest_corner_pinned_case():
    """(3*y^2 - x^3 + 2*x^2*y^2, x^4, y^3): locally 3 + 2*x^2 is a unit, so
    y^2 is x^3 times a unit modulo the ideal, and y * y^2 puts x^3*y in it.
    The leads y^2, x^3*y, x^4 leave the staircase 1, x, x^2, x^3, y, x*y,
    x^2*y.  The pure powers y^2 and x^4 put the corner at D = 5; x^3*y has
    degree 4, so a cut one degree lower loses it and counts 8."""
    gens = [p("2*x^2*y^2 - x^3 + 3*y^2"), p("x^4"), p("y^3")]
    order = local_order(2)
    assert colength(gens, order) == 7
    assert leading_exponents(standard_basis(gens, order), order) == ((0, 2), (3, 1), (4, 0))


@st.composite
def m_primary_ideals(draw):
    """Random generators without a constant term plus a pure power of every
    variable, in 2 or 3 variables."""
    ring = draw(st.sampled_from((R2, R3)))
    n = ring.nvars
    monomials = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    gens = [
        Polynomial(ring, terms)
        for terms in draw(
            st.lists(
                st.dictionaries(monomials, small_coeffs.map(Fraction), min_size=1, max_size=3),
                min_size=1,
                max_size=3,
            )
        )
    ]
    for i, b in enumerate(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))):
        gens.append(Polynomial(ring, {tuple(b if j == i else 0 for j in range(n)): Fraction(1)}))
    return gens


@given(m_primary_ideals())
# the corner is D = 4 (pure powers x, y^2, z^3) and y*z^2 of degree 3 enters
# the lead ideal only through a reduction
@example([p("3*y^3 - y*z^2", R3), p("3*y^2", R3), p("x", R3), p("y^3", R3), p("z^3", R3)])
@settings(max_examples=200, deadline=None)
def test_highest_corner_colength_matches_untruncated_basis(gens):
    """The oracle is the colength read off the untruncated standard basis;
    the budget bounds the Mora blow-ups some random inputs have."""
    order = local_order(gens[0].ring.nvars)
    budgets = Budgets(reductions=300)
    try:
        expected = colength(gens, order, basis=standard_basis(gens, order, budgets))
    except BudgetExceededError:
        return
    assert colength(gens, order, budgets) == expected


def test_highest_corner_stays_inside_colength():
    """standard_basis returns the untruncated basis of the pinned case: its
    third element keeps the tail -2*x^2*y^3 of degree 5 >= D, which the
    truncated basis inside colength drops."""
    gens = [p("2*x^2*y^2 - x^3 + 3*y^2"), p("x^4"), p("y^3")]
    assert standard_basis(gens, local_order(2)) == (
        p("2/3*x^2*y^2 - 1/3*x^3 + y^2"),
        p("x^4"),
        p("-2*x^2*y^3 + x^3*y"),
    )


# --- linear generators substituted away -------------------------------------

# names out of alphabetical order, so that a reordered variable shows in the
# unbounded names
R5 = Ring(("x", "b", "y", "a", "z"))


def p5(text, n=5):
    return parse_polynomial(text, Ring(R5.variables[:n]))


@st.composite
def local_ideals_with_linear_forms(draw):
    """1-5 generators without a constant term in 3-5 variables: linear
    forms, and forms of degree 1-3 with 1-3 terms, each with a linear part
    now and then; and up to n pure powers x_i^b, 2 <= b <= 4, so that many
    colengths are finite."""
    n = draw(st.integers(3, 5))
    ring = Ring(R5.variables[:n])
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    linear = st.dictionaries(st.sampled_from(units), small_coeffs, min_size=1, max_size=n)
    monomials = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 0 < sum(e) <= 3)
    other = st.dictionaries(monomials, small_coeffs, min_size=1, max_size=3)
    terms = draw(st.lists(st.one_of(linear, other), min_size=1, max_size=5))
    for i, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(2, 4)), max_size=n)):
        terms.append({tuple(b * u for u in units[i]): 1})
    return [Polynomial(ring, t) for t in terms]


# a linear locus sheared to x = y + z and b = -a, with images y^2 - a*z,
# a*z and a^3 + z^2 of the other generators
SHEARED_LOCUS = ["x - y - z", "b + a", "y^2 + b*z", "a*z + (x - y - z)*y", "(x - y - z)^2 + a^3 + z^2"]


@given(local_ideals_with_linear_forms())
# only linear generators: every free variable is unbounded
@example([p5("x + 2*y - a"), p5("b - y")])
@example([p5("y - 2*b", 3)])
# every variable a pivot: colength 1
@example([p5("x + b"), p5("b - y"), p5("y + a - z"), p5("a + x*z"), p5("z - x^2"), p5("x*b*y")])
@example([p5("x - y", 3), p5("b + y", 3), p5("y", 3)])
# x -> b, not -b: the image 2*b - y^2 of the second generator bounds b
@example([p5("x - b", 3), p5("x + b - y^2", 3)])
# a generator that becomes linear after the substitution: x^2 - b^2 + y is
# y after x -> b, and then y^2 + a*z is a*z
@example([p5("x - b"), p5("x^2 - b^2 + y"), p5("b^2 + y*z"), p5("y^2 + a*z"), p5("a^2 + z^3")])
@example([p5(t) for t in SHEARED_LOCUS])
@settings(max_examples=200, deadline=None)
def test_substituted_staircase_matches_the_unreduced_engine(gens):
    """colength and the unbounded names of the route that substitutes the
    linear generators away, against the standard basis in every variable;
    the budget bounds the Mora blow-ups of the unreduced engine."""
    order = local_order(gens[0].ring.nvars)
    budgets = Budgets(reductions=2000)
    try:
        expected = unreduced_staircase(gens, order, budgets)
    except BudgetExceededError:
        return
    assert _staircase(gens, order, budgets) == expected


@pytest.mark.parametrize(
    "texts, n, expected",
    [
        (["x + 2*y - a", "b - y"], 5, (INFINITE, ("y", "a", "z"))),
        (["x - y", "b + y", "y"], 3, (1, ())),
        (["x - b", "x + b - y^2"], 3, (INFINITE, ("y",))),
        (["x - b", "x^2 - b^2 + y", "b^2 + y*z", "y^2 + a*z", "a^2 + z^3"], 5, (10, ())),
        (SHEARED_LOCUS, 5, (10, ())),
        (SHEARED_LOCUS[:3], 5, (INFINITE, ("a", "z"))),
    ],
)
def test_substituted_staircase_examples(texts, n, expected):
    """Hand counts.  After x -> b and y -> 0 the third example leaves
    (b^2, a*z, a^2 + z^3), whose leads b^2, a*z, a^2 and z^4 (from the
    S-polynomial of the last two) leave 1, a, z, z^2, z^3 and their b
    multiples.  The sheared locus leaves (y^2, a*z, z^2 + a^3), with leads
    y^2, a*z, z^2 and a^4, and staircase 1, a, a^2, a^3, z and their y
    multiples; its first three generators leave y^2 - a*z alone, whose lead
    is y^2."""
    gens = [p5(t, n) for t in texts]
    assert _staircase(gens, local_order(n), DEFAULT_BUDGETS) == expected


@pytest.mark.parametrize(
    "texts, n, expected",
    [
        (["x + 2*y - a", "b - y"], 5, (INFINITE, ("y", "a", "z"))),
        (["x - y", "b + y", "y"], 3, (1, ())),
        (["x - b", "x^2 - b^2 + y", "b + 2*x*y"], 3, (1, ())),
        (SHEARED_LOCUS[:2], 5, (INFINITE, ("y", "a", "z"))),
    ],
)
def test_linear_generators_need_no_standard_basis(texts, n, expected, monkeypatch):
    """When every generator is linear or becomes linear, no engine
    polynomial is built."""
    built = _count_engine_polynomials(monkeypatch)
    assert _staircase([p5(t, n) for t in texts], local_order(n), DEFAULT_BUDGETS) == expected
    assert built == []


# --- intersection, saturation -------------------------------------------

def _same_ideal(a, b, order):
    return all(is_member(f, list(b), order) for f in a) and all(
        is_member(f, list(a), order) for f in b
    )


def _generates_same_monomial_ideal(gens, expected_texts, ring=R2):
    """Whether gens and the monomials expected_texts generate the same ideal
    of the local ring, where a monomial ideal's membership is still
    divisibility."""
    expected = [p(t, ring) for t in expected_texts]
    return _same_ideal(gens, expected, local_order(ring.nvars))


def _is_standard_basis(basis, order):
    return leading_exponents(basis, order) == leading_exponents(
        standard_basis(basis, order), order
    )


def test_intersection_examples():
    got = intersect_ideals([p("x")], [p("y")], GradedOrder(2))
    assert _generates_same_monomial_ideal(got, ["x*y"])
    got = intersect_ideals([p("x^2"), p("y")], [p("x")], GradedOrder(2))
    assert _generates_same_monomial_ideal(got, ["x^2", "x*y"])


def test_saturation_honest_values():
    # (x^2*y, x^3) : x^inf contains y (x^2*y / x^2) and 1 (x^3 / x^3) -> (1)
    gens, eliminations = saturate([p("x^2*y"), p("x^3")], [p("x")], local_order(2))
    assert _generates_same_monomial_ideal(gens, ["1"])
    assert eliminations == 1
    # (x^2*y) : x^inf = (y)
    gens, eliminations = saturate([p("x^2*y")], [p("x")], local_order(2))
    assert _generates_same_monomial_ideal(gens, ["y"])
    assert eliminations == 1
    # f*x in (x^2*y) iff f in (x*y); f*y in (x^2*y) iff f in (x^2); so
    # (x^2*y) : (x, y) = (x*y) ∩ (x^2) = (x^2*y) again, and so is the saturation;
    # one elimination for the whole ideal, whose zero generator adds no tag power
    gens, eliminations = saturate([p("x^2*y")], [p("x"), R2.zero(), p("y")], local_order(2))
    assert _generates_same_monomial_ideal(gens, ["x^2*y"])
    assert eliminations == 1


def test_saturation_keeps_the_divisors_apart():
    """A principal ideal has no component at the origin, so
    (x*(x + y)) : (x, y)^inf is the ideal itself, while by the one element
    x + y it is (x): the tag powers t^i keep the divisors apart."""
    order = local_order(2)
    basis, _ = saturate([p("x^2 + x*y")], [p("x"), p("y")], order)
    assert leading_exponents(basis, order) == ((2, 0),)
    assert _same_ideal(basis, [p("x^2 + x*y")], order)
    basis, _ = saturate([p("x^2 + x*y")], [p("x + y")], order)
    assert _same_ideal(basis, [p("x")], order)


def test_saturation_fixed_point():
    gens, eliminations = saturate([p("y")], [p("x")], local_order(2))
    assert _generates_same_monomial_ideal(gens, ["y"])
    assert eliminations == 1


def test_saturation_rejects_zero_ideal_and_block_orders():
    with pytest.raises(ValueError, match="saturation by the zero ideal"):
        saturate([p("x")], [R2.zero()], local_order(2))
    with pytest.raises(ValueError, match="need the local order"):
        saturate([p("x")], [p("y")], elimination_order(2))


@pytest.mark.parametrize(
    "order",
    [elimination_order(2), GradedOrder(2), GradedOrder(2, eliminate_last=True)],
    ids=["local-elimination", "graded", "graded-elimination"],
)
def test_colength_and_saturate_refuse_orders_that_are_not_local(order):
    """Both take the local order only, and refuse any other with one
    message, the local elimination order included; given a basis, colength
    refuses it too."""
    message = f"need the local order, not {order.kind!r}"
    gens = [p("x^2"), p("y^3")]
    for call in (
        lambda: colength(gens, order),
        lambda: colength(gens, order, basis=gens),
        lambda: saturate(gens, [p("x")], order),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_saturation_local_versus_global_hand_value():
    """x - x^2 = x*(1 - x): locally 1 - x is a unit, so the ideal is (x, y^2)
    and saturating by x gives (1); globally, on the tag-ring route under the
    graded order, the factor x is removed and (x - 1, y^2) remains."""
    gens = [p("x - x^2"), p("y^2")]
    local, _ = saturate(gens, [p("x")], local_order(2))
    assert leading_exponents(local, local_order(2)) == ((0, 0),)
    glob, _ = tag_ring_saturation(gens, [p("x")], GradedOrder(2))
    assert _same_ideal(glob, [p("x - 1"), p("y^2")], GradedOrder(2))
    for basis, order in ((local, local_order(2)), (glob, GradedOrder(2))):
        assert _is_standard_basis(basis, order)


def test_local_saturation_returns_a_local_standard_basis():
    """1 + x is a unit at the origin, so (x^2 - 2y, x^3*y^3) : (1 + x)^inf is
    the ideal itself, locally (y - x^2/2, x^9) with leads y and x^9.  Its
    Groebner basis (x^2 - 2y, x*y^4, y^5) has local leads generating only (y)."""
    order = local_order(2)
    basis, _ = saturate([p("x^2 - 2*y"), p("x^3*y^3")], [p("1 + x")], order)
    assert leading_exponents(basis, order) == ((0, 1), (9, 0))
    assert colength(basis, order, basis=basis) == 9


def _long_division(h, q, order):
    """Exact quotient h / q by multivariate long division under a global
    order; fails if q does not divide h."""
    ring = h.ring
    lq = leading_exponent(order, q.terms)
    quotient = ring.zero()
    while not h.is_zero():
        lh = leading_exponent(order, h.terms)
        assert monomial_divides(lq, lh), "division leaves a remainder"
        shift = tuple(a - b for a, b in zip(lh, lq))
        term = Polynomial(ring, {shift: h.coefficient(lh) / q.coefficient(lq)})
        quotient = quotient + term
        h = h - term * q
    return quotient


def _iterated_quotient_saturation(gens, igens, order):
    """Test-only oracle, graded order: I : (igens)^inf by repeated ideal
    quotients I : (igens) = ∩_q I : q, where I : q is (I ∩ (q)) / q, until the
    lead ideal stops changing."""
    ring = gens[0].ring

    def quotient(ideal, q):
        found = [_long_division(h, q, order) for h in intersect_ideals(ideal, [q], order)]
        return [f for f in found if not f.is_zero()] or [ring.zero()]

    current = list(gens)
    signature = leading_exponents(standard_basis(current, order), order)
    while True:
        parts = [quotient(current, q) for q in igens if not q.is_zero()]
        nxt = parts[0]
        for part in parts[1:]:
            nxt = list(intersect_ideals(nxt, part, order))
        nsig = leading_exponents(standard_basis(nxt, order), order)
        if nsig == signature:
            return current
        current, signature = nxt, nsig


@given(
    st.lists(sparse_polys(max_terms=3, max_exp=3), min_size=1, max_size=3),
    st.lists(sparse_polys(max_terms=2, max_exp=2), min_size=1, max_size=2),
)
@settings(max_examples=25, deadline=None)
def test_saturation_matches_iterated_quotient_oracle(gens, igens):
    """The iterated quotients under the graded order give the ideal of the
    tag-ring route under that order, the polynomial saturation.  It
    commutes with localization, so under the local order the oracle's ideal
    has the lead ideal of the local saturation (mutual membership is not
    checked there: Mora normal forms of these inputs can take minutes)."""
    order = GradedOrder(2)
    expected = _iterated_quotient_saturation(gens, igens, order)
    assert _same_ideal(tag_ring_saturation(gens, igens, order)[0], expected, order)
    local = local_order(2)
    basis, eliminations = saturate(gens, igens, local)
    assert eliminations == 1
    assert leading_exponents(basis, local) == leading_exponents(
        standard_basis(expected, local), local
    )
    assert _is_standard_basis(basis, local)


def _per_generator_saturation(gens, igens, order, budgets=DEFAULT_BUDGETS):
    """Test-only oracle: I : (igens)^inf = ∩_q I : q^inf over the nonzero q,
    each part a one-divisor saturation, intersected in igens order."""
    basis = None
    for q in igens:
        if q.is_zero():
            continue
        part, _ = saturate(gens, [q], order, budgets)
        basis = part if basis is None else intersect_ideals(basis, part, order, budgets)
    return basis


@st.composite
def divisor_lists(draw):
    """1-3 divisors, at least one nonzero: sparse polynomials, zero and the
    unit 1 + x, with the first one sometimes repeated."""
    pool = st.one_of(sparse_polys(max_terms=2, max_exp=2), st.sampled_from([R2.zero(), p("1 + x")]))
    qs = draw(st.lists(pool, min_size=1, max_size=3))
    if len(qs) < 3 and draw(st.booleans()):
        qs.append(qs[0])
    assume(any(not q.is_zero() for q in qs))
    return qs


@given(st.lists(sparse_polys(max_terms=3, max_exp=3), min_size=1, max_size=3), divisor_lists())
@example([p("x^2*y"), p("x*y^3")], [p("x"), R2.zero(), p("y")])
@example([p("x^2 + x*y")], [p("x"), p("y")])
@example([p("x^2*y - y^2"), p("x^3")], [p("x*y"), p("x*y")])
@example([p("x - x^2"), p("y^2")], [p("1 + x"), p("y")])
@settings(max_examples=50, deadline=None)
def test_one_elimination_matches_the_per_generator_route(gens, igens):
    """The one Rabinowitsch elimination by 1 - sum_i t^i * q_i against the
    intersection of the one-divisor saturations: the same lead ideal under
    the local order."""
    local = local_order(2)
    basis, _ = saturate(gens, igens, local)
    expected = _per_generator_saturation(gens, igens, local)
    assert leading_exponents(basis, local) == leading_exponents(expected, local)


# (gens, divisors) whose one-elimination saturation under the local order
# needs far more reductions in the presented divisor order than in the
# reversed one or on the per-generator route, which finish in 5 ms:
# (J, 1 - t*y - t^2*x) passes 1000 reductions, and finishes under 2000 in
# 0.2 s, where (J, 1 - t*x - t^2*y) needs under 256.  A fix of the engine's
# order dependence flips the first assertion of the test below.
SATURATION_BLOW_UPS = [
    (("2*x^2*y^3 - 2*x^2", "-2*x^3*y^2 + 3*x*y^2 + y^3"), ("y", "x")),
]


@pytest.mark.parametrize("gens, divisors", SATURATION_BLOW_UPS)
def test_one_elimination_blow_ups_are_order_dependent(gens, divisors):
    """Under 1000 reductions the presented divisor order trips, and the
    reversed order and the per-generator route give the same lead ideal;
    under 2000 the presented order gives it too."""
    order, budgets = local_order(2), Budgets(reductions=1000)
    gens, divisors = [p(t) for t in gens], [p(t) for t in divisors]
    with pytest.raises(BudgetExceededError):
        saturate(gens, divisors, order, budgets)
    basis, _ = saturate(gens, divisors[::-1], order, budgets)
    expected = leading_exponents(_per_generator_saturation(gens, divisors, order, budgets), order)
    assert leading_exponents(basis, order) == expected
    basis, _ = saturate(gens, divisors, order, Budgets(reductions=2000))
    assert leading_exponents(basis, order) == expected


# rings whose variables take the names the tag ring's fresh-tag search skips
TAG_NAMED_RINGS = (Ring(("x", "_t")), Ring(("_t", "_t1")), Ring(("_t", "y", "_t1")), R2, R3)
fraction_coeffs = st.sampled_from(
    (-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
).map(Fraction)


@st.composite
def tag_ring_saturations(draw):
    """A ring of 2-3 variables, some named _t and _t1, 0-3 generators and
    1-3 divisors with Fraction coefficients, zero and repeated divisors
    among them, and a budget that often trips."""
    ring = draw(st.sampled_from(TAG_NAMED_RINGS))

    def polys(max_terms, max_exp):
        return st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * ring.nvars),
            fraction_coeffs,
            min_size=1,
            max_size=max_terms,
        ).map(lambda terms: Polynomial(ring, terms))

    zero = st.just(ring.zero())
    gens = draw(st.lists(st.one_of(polys(3, 3), polys(3, 3), zero), max_size=3))
    divisors = draw(st.lists(st.one_of(polys(2, 2), polys(2, 2), zero), min_size=1, max_size=3))
    if len(divisors) < 3 and draw(st.booleans()):
        divisors.append(divisors[0])
    budgets = draw(st.sampled_from((Budgets(reductions=300), Budgets(reductions=6), Budgets(basis=2))))
    return gens, divisors, local_order(ring.nvars), budgets


def _outcome_or_error(route, *args):
    """What route(*args) returns, or the class and message of the error it
    raises."""
    try:
        return route(*args)
    except (ValueError, BudgetExceededError) as exc:
        return type(exc), str(exc)


RT = Ring(("x", "_t"))


@given(tag_ring_saturations())
@example(
    ([p("x*_t - 1/2", RT), RT.zero()], [p("x", RT), p("x", RT)], local_order(2), Budgets()),
)
@example(
    (
        [p(t) for t in SATURATION_BLOW_UPS[0][0]],
        [p(t) for t in SATURATION_BLOW_UPS[0][1]],
        local_order(2),
        Budgets(reductions=1000),
    ),
)
@example(([], [p("x - x^2"), R2.zero()], local_order(2), Budgets()))
@settings(max_examples=150, deadline=None)
def test_saturation_matches_the_tag_ring_route(case):
    """The saturation on engine term maps, with the tag as an exponent slot
    and the tag-free part read off the leads, against the route through a
    ring with a named tag variable: the same polynomials in the same order,
    or the same error with the same message, budget trips included."""
    gens, divisors, order, budgets = case
    expected = _outcome_or_error(tag_ring_saturation, gens, divisors, order, budgets)
    assert _outcome_or_error(saturate, gens, divisors, order, budgets) == expected


@pytest.mark.parametrize(
    "gens, divisors, order",
    [
        ([], [], local_order(2)),
        ([p("x")], [p("x", R3)], local_order(2)),
        ([p("x")], [p("y")], local_order(3)),
        ([p("x")], [R2.zero()], elimination_order(2)),
        ([p("x")], [R2.zero()], local_order(2)),
    ],
    ids=["no-generators", "two-rings", "variable-count", "block-order", "zero-ideal"],
)
def test_saturation_errors_match_the_tag_ring_route(gens, divisors, order):
    """Each input error, and the first of two, is the one the tag ring
    route raises."""
    expected = _outcome_or_error(tag_ring_saturation, gens, divisors, order, DEFAULT_BUDGETS)
    assert expected[0] is ValueError
    assert _outcome_or_error(saturate, gens, divisors, order, DEFAULT_BUDGETS) == expected


def _minimal_monomials(exps):
    exps = set(exps)
    return {e for e in exps if not any(o != e and monomial_divides(o, e) for o in exps)}


@given(
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=4),
    st.sets(st.integers(0, 2), min_size=1),
)
@settings(max_examples=40, deadline=None)
def test_saturation_of_monomial_ideal_by_variables(exps, subset):
    """I : (x_i : i in S)^inf = ∩_{i in S} I|_{x_i = 1} for a monomial ideal I,
    with monomial ideals intersected by lcms of their generators."""
    order = local_order(3)
    gens = [Polynomial(R3, {e: Fraction(1)}) for e in exps]
    variables = [R3.gens()[i] for i in sorted(subset)]
    expected = None
    for i in sorted(subset):
        part = {e[:i] + (0,) + e[i + 1:] for e in exps}
        expected = part if expected is None else {
            tuple(map(max, a, b)) for a in expected for b in part
        }
    basis, eliminations = saturate(gens, variables, order)
    assert eliminations == 1
    assert set(leading_exponents(basis, order)) == _minimal_monomials(expected)
    assert _is_standard_basis(basis, order)
