"""Standard bases, normal forms, colength, the highest corner, intersection,
saturation.

Every nontrivial frozen value here is cross-checked by an independent
route stated next to it: a truncated-series computation, divisibility logic
for monomial ideals, a count the reader can do by hand on a staircase, or a
slower second algorithm kept here as an oracle (a min-scan completion, and
saturation by iterated ideal quotients).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from milnorfibre.errors import BudgetExceededError
from milnorfibre.orders import (
    GLOBAL_GRADED_REVLEX,
    LOCAL_ANTIGRADED_REVLEX,
    elimination_order,
    global_order,
    local_order,
)
from milnorfibre.rings import Polynomial, Ring, monomial_divides, parse_polynomial
from milnorfibre.standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _EP,
    _Counter,
    _ep_from_polynomial,
    _ep_monic,
    _ep_scale,
    _ep_spoly,
    _ep_sub_shifted,
    _ep_to_polynomial,
    _inverse,
    _minimalize,
    _standard_basis_ep,
    _weak_normal_form,
    colength,
    intersect_ideals,
    is_member,
    leading_exponents,
    saturate,
    standard_basis,
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
        lead = order.leading_exponent(list(h.terms))
        term = Polynomial(f.ring, {lead: h.coefficient(lead)})
        out = out + term
        h = weak_normal_form(h - term, reducers, order)
    return out


def test_global_normal_form_is_canonical():
    basis = standard_basis([p("x^2 - y"), p("y^2 - 1")], global_order(2))
    f, g = p("x^4 + y"), p("x^2*y + 1")
    # linearity over a fixed Groebner basis characterizes the reduced NF
    nf = lambda q: normal_form(q, basis, global_order(2))
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
    assert not is_member(f, [g], global_order(1))


@given(st.lists(sparse_polys(), min_size=1, max_size=3), st.data())
@settings(max_examples=30)
def test_membership_of_constructed_combinations(gens, data):
    combo = R2.zero()
    for g in gens:
        factor = data.draw(sparse_polys(max_terms=2, max_exp=2))
        combo = combo + factor * g
    for order in (global_order(2), local_order(2)):
        assert is_member(combo, gens, order)


def test_monomial_non_membership():
    gens = [p("x^2"), p("x*y^2")]
    # for monomial ideals membership is divisibility, decidable by eye
    assert not is_member(p("y^3"), gens, global_order(2))
    assert not is_member(p("x*y"), gens, global_order(2))
    assert is_member(p("x^3*y"), gens, global_order(2))


# --- standard bases -------------------------------------------------------

@given(st.lists(sparse_polys(max_terms=2, max_exp=3), min_size=1, max_size=3))
@settings(max_examples=25)
def test_criteria_do_not_change_lead_ideal(gens):
    """Buchberger criteria are a pruning optimization only: the criteria-free
    completion of the min-scan oracle has the same lead ideal."""
    for order in (global_order(2), local_order(2)):
        with_c = standard_basis(gens, order)
        without = _min_scan_standard_basis(gens, order, use_criteria=False)
        assert set(leading_exponents(with_c, order)) == set(
            leading_exponents(without, order)
        )


def _min_scan_standard_basis(gens, order, budgets=DEFAULT_BUDGETS, use_criteria=True):
    """Test-only oracle: Buchberger completion that picks each S-pair by a
    min over every pending pair, keyed (lcm degree, i, j), and reads leads
    off the terms instead of the cached lead data."""
    counter = _Counter(budgets.reductions, "reduction")
    pair_counter = _Counter(budgets.basis, "basis pair")
    eps = [_ep_from_polynomial(g, order) for g in gens]
    G = [_ep_monic(g) for g in eps if g.terms]

    def lead(g):
        return g.terms[0][1]

    def pair_lcm(a, b):
        return tuple(max(x, y) for x, y in zip(lead(a), lead(b)))

    pending = {
        (i, j): pair_lcm(G[i], G[j]) for i in range(len(G)) for j in range(i + 1, len(G))
    }
    while pending:
        i, j = min(pending, key=lambda p: (sum(pending[p]), p))
        lcm = pending.pop((i, j))
        if use_criteria:
            if order.is_global() and all(
                min(a, b) == 0 for a, b in zip(lead(G[i]), lead(G[j]))
            ):
                continue
            if any(
                k not in (i, j)
                and monomial_divides(lead(G[k]), lcm)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                for k in range(len(G))
            ):
                continue
        pair_counter.spend()
        h = _weak_normal_form(_ep_spoly(G[i], G[j], order), G, order, counter)
        if h.terms:
            G.append(_ep_monic(h))
            new = len(G) - 1
            for k in range(new):
                pending[(k, new)] = pair_lcm(G[k], G[new])
    return tuple(_ep_to_polynomial(g, gens[0].ring) for g in _minimalize(G))


ALL_ORDERS_3 = (
    global_order(3),
    local_order(3),
    elimination_order(3, LOCAL_ANTIGRADED_REVLEX),
    elimination_order(3, GLOBAL_GRADED_REVLEX),
)


@given(st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=1, max_size=3))
@settings(max_examples=30)
def test_heap_queue_matches_min_scan_oracle(gens):
    """The heap pair queue takes the pairs in the oracle's order, so the
    bases are the same tuples of polynomials.  The budget bounds the Mora
    blow-ups that some draws meet under the local order, such as
    (y^2*z + z^2 + z, y*z + 1, x^2*y^2 + z): both routes must trip it with
    the same message."""
    budgets = Budgets(reductions=400)
    for order in ALL_ORDERS_3:
        assert _outcome(standard_basis, gens, order, budgets) == _outcome(
            _min_scan_standard_basis, gens, order, budgets
        )


def _outcome(route, gens, order, budgets):
    try:
        return route(gens, order, budgets)
    except BudgetExceededError as exc:
        return str(exc)


@given(st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=2, max_size=3))
@settings(max_examples=20)
def test_heap_queue_trips_budgets_like_min_scan_oracle(gens):
    """At small budgets both routes raise BudgetExceededError, with the same
    message, or both return the same basis."""
    for order in ALL_ORDERS_3:
        for budgets in (Budgets(basis=1), Budgets(basis=2), Budgets(basis=3), Budgets(reductions=6)):
            assert _outcome(standard_basis, gens, order, budgets) == _outcome(
                _min_scan_standard_basis, gens, order, budgets
            )


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


@given(
    sparse_polys(R3, max_terms=4),
    sparse_polys(R3, max_terms=4),
    st.tuples(*[st.integers(0, 2)] * 3),
    small_coeffs,
    st.sampled_from(ALL_ORDERS_3),
)
def test_engine_operations_keep_cached_lead_data(f, g, shift, c, order):
    """Lead exponent and ecart cached at construction match the values
    recomputed from the terms after every engine operation."""
    a, b = _ep_from_polynomial(f, order), _ep_from_polynomial(g, order)
    c = Fraction(c)
    results = [
        a,
        _ep_scale(a, c),
        _ep_monic(a),
        _ep_sub_shifted(a, c, order.key(shift), shift, b),
        _ep_spoly(_ep_monic(a), _ep_monic(b), order),
        # a - a cancels to the zero polynomial
        _ep_sub_shifted(a, Fraction(1), order.key((0, 0, 0)), (0, 0, 0), a),
    ]
    for ep in results:
        _assert_cached_lead_data(ep, order)


def test_standard_basis_contains_spolynomial_closure():
    basis = standard_basis([p("x^2 + y"), p("x*y + x")], global_order(2))
    # y^2 + y = y*(x^2 + y) - x*(x*y + x) + (x^2 + y)  must reduce to 0
    f = p("y^2 + y")
    assert normal_form(f, basis, global_order(2)) == R2.zero()


# --- exact division by non-monic leads -----------------------------------
# Integral coefficients are ints, so every division in the engine must go
# through _inverse: int / int would make a float.  The Fraction route below
# is the engine run on inputs whose coefficients are all Fractions.

def _fraction_ep(f, order):
    ep = _ep_from_polynomial(f, order)
    return _EP(tuple((k, e, Fraction(c)) for k, e, c in ep.terms))


def _fraction_route(gens, order, budgets):
    try:
        basis = _standard_basis_ep([_fraction_ep(g, order) for g in gens], order, budgets)
    except BudgetExceededError as exc:
        return str(exc)
    return tuple(_ep_to_polynomial(g, gens[0].ring) for g in basis)


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
        (global_order(2), "-1/12*y", ("y^2 + 1/3*x", "x - 1/2*y"), 2),
        # 3*y^2 + x leads with x, and y*(1 + 6*y) lies in the ideal
        (local_order(2), "1/2*y^2", ("x - 1/2*y", "6*y^2 + y"), 1),
    ],
)
def test_engine_divides_exactly_by_non_monic_leads(order, wnf, basis, length):
    """By hand under the global order: x*y - y*(2*x - y)/2 = y^2/2, then
    y^2/2 - (3*y^2 + x)/6 = -x/6, then -x/6 + (2*x - y)/12 = -y/12."""
    reducers = [p("2*x - y"), p("3*y^2 + x")]
    f = p("x*y")
    h = weak_normal_form(f, reducers, order)
    sb = standard_basis(reducers, order)
    assert h == p(wnf)
    assert sb == tuple(p(t) for t in basis)
    assert colength(reducers, order) == length
    for q in (h,) + sb:
        assert_exact(q)
    for b in sb:
        assert b.coefficient(order.leading_exponent(list(b.terms))) == 1
    # the same computations on Fraction-valued inputs
    counter = _Counter(DEFAULT_BUDGETS.reductions, "reduction")
    frac = [_fraction_ep(g, order) for g in reducers]
    h_frac = _weak_normal_form(_fraction_ep(f, order), frac, order, counter)
    assert _ep_to_polynomial(h_frac, R2) == h
    assert _fraction_route(reducers, order, DEFAULT_BUDGETS) == sb
    # and with the generators scaled by a non-integral unit
    scaled = [g.scale(Fraction(2, 3)) for g in reducers]
    assert weak_normal_form(f, scaled, order) == h
    assert standard_basis(scaled, order) == sb
    assert colength(scaled, order) == length


@given(st.lists(sparse_polys(R3, max_terms=3, max_exp=2), min_size=1, max_size=3))
@settings(max_examples=30)
def test_int_coefficients_match_fraction_route(gens):
    """Integer generators with non-monic leads give the bases that the same
    generators with Fraction coefficients give, exact and never float."""
    budgets = Budgets(reductions=400)
    for order in ALL_ORDERS_3:
        got = _outcome(standard_basis, gens, order, budgets)
        assert got == _fraction_route(gens, order, budgets)
        if not isinstance(got, str):
            for b in got:
                assert_exact(b)


# --- colength -------------------------------------------------------------

def test_colength_examples():
    # staircase of (x^2, y^3): monomials 1, x, y, xy, y^2, xy^2
    assert colength([p("x^2"), p("y^3")], global_order(2)) == 6
    # A_3 plane curve x^4 + y^2: Jacobian ideal (x^3, y), colength 3
    assert colength([p("x^3"), p("y")], local_order(2)) == 3
    assert colength([p("x*y")], global_order(2)) == INFINITE
    assert colength([p("x - x^2"), p("y")], local_order(2)) == 1
    assert colength([p("x - x^2"), p("y")], global_order(2)) == 2


def test_colength_nonmonomial_matches_hand_count():
    # (x^2 + y^2, x*y): standard basis adds y^3; staircase 1, x, y, y^2
    for order in (global_order(2), local_order(2)):
        assert colength([p("x^2 + y^2"), p("x*y")], order) == 4


def test_colength_budget():
    """(x^2 + y^2, x*y) under the global order reduces two S-pairs: the first
    gives y^3, and (x*y, y^3) reduces to zero; (x^2 + y^2, y^3) has coprime
    leads and is skipped.  A basis budget of 1 aborts at the second."""
    gens = [p("x^2 + y^2"), p("x*y")]
    assert colength(gens, global_order(2), Budgets(basis=2)) == 4
    with pytest.raises(BudgetExceededError) as info:
        colength(gens, global_order(2), Budgets(basis=1))
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


# --- intersection, saturation -------------------------------------------

def _same_ideal(a, b, order):
    return all(is_member(f, list(b), order) for f in a) and all(
        is_member(f, list(a), order) for f in b
    )


def _generates_same_monomial_ideal(gens, expected_texts, ring=R2):
    expected = [p(t, ring) for t in expected_texts]
    return _same_ideal(gens, expected, global_order(ring.nvars))


def _is_standard_basis(basis, order):
    return leading_exponents(basis, order) == leading_exponents(
        standard_basis(basis, order), order
    )


def test_intersection_examples():
    got = intersect_ideals([p("x")], [p("y")], global_order(2))
    assert _generates_same_monomial_ideal(got, ["x*y"])
    got = intersect_ideals([p("x^2"), p("y")], [p("x")], global_order(2))
    assert _generates_same_monomial_ideal(got, ["x^2", "x*y"])


def test_saturation_honest_values():
    # (x^2*y, x^3) : x^inf contains y (x^2*y / x^2) and 1 (x^3 / x^3) -> (1)
    gens, eliminations = saturate([p("x^2*y"), p("x^3")], [p("x")], global_order(2))
    assert _generates_same_monomial_ideal(gens, ["1"])
    assert eliminations == 1
    # (x^2*y) : x^inf = (y)
    gens, eliminations = saturate([p("x^2*y")], [p("x")], global_order(2))
    assert _generates_same_monomial_ideal(gens, ["y"])
    assert eliminations == 1
    # f*x in (x^2*y) iff f in (x*y); f*y in (x^2*y) iff f in (x^2); so
    # (x^2*y) : (x, y) = (x*y) ∩ (x^2) = (x^2*y) again, and so is the saturation;
    # one elimination per generator of (x, y), none for the zero generator
    gens, eliminations = saturate([p("x^2*y")], [p("x"), R2.zero(), p("y")], global_order(2))
    assert _generates_same_monomial_ideal(gens, ["x^2*y"])
    assert eliminations == 2


def test_saturation_fixed_point():
    gens, eliminations = saturate([p("y")], [p("x")], global_order(2))
    assert _generates_same_monomial_ideal(gens, ["y"])
    assert eliminations == 1


def test_saturation_rejects_zero_ideal_and_block_orders():
    with pytest.raises(ValueError):
        saturate([p("x")], [R2.zero()], global_order(2))
    with pytest.raises(ValueError):
        saturate([p("x")], [p("y")], elimination_order(2, GLOBAL_GRADED_REVLEX))


def test_saturation_local_versus_global_hand_value():
    """x - x^2 = x*(1 - x): locally 1 - x is a unit, so the ideal is (x, y^2)
    and saturating by x gives (1); globally the factor x is removed and
    (x - 1, y^2) remains."""
    gens = [p("x - x^2"), p("y^2")]
    local, _ = saturate(gens, [p("x")], local_order(2))
    assert leading_exponents(local, local_order(2)) == ((0, 0),)
    glob, _ = saturate(gens, [p("x")], global_order(2))
    assert _same_ideal(glob, [p("x - 1"), p("y^2")], global_order(2))
    for basis, order in ((local, local_order(2)), (glob, global_order(2))):
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
    lq = order.leading_exponent(list(q.terms))
    quotient = ring.zero()
    while not h.is_zero():
        lh = order.leading_exponent(list(h.terms))
        assert monomial_divides(lq, lh), "division leaves a remainder"
        shift = tuple(a - b for a, b in zip(lh, lq))
        term = Polynomial(ring, {shift: h.coefficient(lh) / q.coefficient(lq)})
        quotient = quotient + term
        h = h - term * q
    return quotient


def _iterated_quotient_saturation(gens, igens, order):
    """Test-only oracle, global orders: I : (igens)^inf by repeated ideal
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
    order = global_order(2)
    expected = _iterated_quotient_saturation(gens, igens, order)
    basis, eliminations = saturate(gens, igens, order)
    assert eliminations == len(igens)
    assert _same_ideal(basis, expected, order)
    assert _is_standard_basis(basis, order)
    # saturation commutes with localization, so under the local order the
    # oracle's ideal has the lead ideal of the local saturation (mutual
    # membership is not checked there: Mora normal forms of these inputs
    # can take minutes)
    local = local_order(2)
    basis, _ = saturate(gens, igens, local)
    assert leading_exponents(basis, local) == leading_exponents(
        standard_basis(expected, local), local
    )
    assert _is_standard_basis(basis, local)


def _minimal_monomials(exps):
    exps = set(exps)
    return {e for e in exps if not any(o != e and monomial_divides(o, e) for o in exps)}


@given(
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=4),
    st.sets(st.integers(0, 2), min_size=1),
    st.sampled_from((global_order(3), local_order(3))),
)
@settings(max_examples=40, deadline=None)
def test_saturation_of_monomial_ideal_by_variables(exps, subset, order):
    """I : (x_i : i in S)^inf = ∩_{i in S} I|_{x_i = 1} for a monomial ideal I,
    with monomial ideals intersected by lcms of their generators."""
    gens = [Polynomial(R3, {e: Fraction(1)}) for e in exps]
    variables = [R3.gens()[i] for i in sorted(subset)]
    expected = None
    for i in sorted(subset):
        part = {e[:i] + (0,) + e[i + 1:] for e in exps}
        expected = part if expected is None else {
            tuple(map(max, a, b)) for a in expected for b in part
        }
    basis, eliminations = saturate(gens, variables, order)
    assert eliminations == len(subset)
    assert set(leading_exponents(basis, order)) == _minimal_monomials(expected)
    assert _is_standard_basis(basis, order)
