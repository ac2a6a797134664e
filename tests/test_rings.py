"""Polynomials, parsing, matrices, determinants, minors."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from milnorfibre.corpus import _dkp_case, build_input
from milnorfibre.errors import ParseError, RingMismatchError
from milnorfibre.rings import (
    EXPANSION_BOUND,
    PolyMatrix,
    Polynomial,
    Ring,
    corank_at_origin,
    determinant,
    evaluate_matrix_at_origin,
    format_polynomial,
    fraction_matrix_rank,
    int_determinant,
    jacobian,
    leading_minors,
    minors,
    parse_matrix,
    parse_polynomial,
)

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def poly(text, ring=R2):
    return parse_polynomial(text, ring)


# --- strategies ---------------------------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda c: c != 0)
expo2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def polynomials(draw, ring=R2, max_terms=5, coefficients=coeffs):
    nvars = ring.nvars
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * nvars), coefficients, max_size=max_terms
        )
    )
    return Polynomial(ring, terms)


# --- ring and parsing ---------------------------------------------------

def test_ring_rejects_bad_names():
    with pytest.raises(ValueError):
        Ring(("x", "x"))
    with pytest.raises(ValueError):
        Ring(("2x",))
    with pytest.raises(ValueError):
        Ring(())


def test_parse_examples():
    p = poly("x^2 - x*y + 1/2")
    assert p == R2.variable("x") ** 2 - R2.variable("x") * R2.variable("y") + R2.constant(
        Fraction(1, 2)
    )
    assert poly("(x + y)^2") == poly("x^2 + 2*x*y + y^2")
    assert poly("-x") == -R2.variable("x")
    with pytest.raises(ParseError):
        poly("2x")  # implicit product is not in the grammar


def test_parse_precedence_and_unary():
    assert poly("x + y * y") == poly("x + y^2")
    assert poly("-x^2") == -poly("x^2")
    assert poly("(-x)^2") == poly("x^2")
    assert poly("x - -y") == poly("x + y")
    # a run of signs applies after the power, wherever its factor stands
    assert poly("x*-y^2") == -(poly("x") * poly("y^2"))
    assert poly("x - -y^2") == poly("x + y^2")
    assert poly("3/2*-23/2^0") == R2.constant(Fraction(-3, 2))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        poly("x +")
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        poly("w + x")
    with pytest.raises(ParseError):
        poly("x^-2")
    with pytest.raises(ParseError):
        poly("x^(1/2)")


@given(polynomials())
def test_format_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p), R2) == p


# An expression tree renders to text at one of four grammar levels, and its
# value comes from Polynomial arithmetic alone, never from the parser.
SUM, TERM, FACTOR, ATOM = range(4)


def _at_least(node, level):
    text, node_level, value = node
    return node if node_level >= level else (f"({text})", ATOM, value)


expression_atoms = st.one_of(
    st.sampled_from(R2.variables).map(lambda v: (v, ATOM, R2.variable(v))),
    st.integers(0, 12).map(lambda k: (str(k), ATOM, R2.constant(k))),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", ATOM, R2.constant(Fraction(*pq)))
    ),
)
spacing = st.sampled_from(["", " "])


@st.composite
def _factors(draw, children):
    """The factor rule: a run of signs, then a child, then maybe a power."""
    sp = draw(spacing)
    signs = draw(st.lists(st.sampled_from("+-"), max_size=3))
    text, _, value = _at_least(draw(children), ATOM)
    k = draw(st.none() | st.integers(0, 3))
    if k is not None:
        text, value = f"{text}{sp}^{sp}{k}", value**k
    level = ATOM if not signs and k is None else FACTOR
    return sp.join(signs + [text]), level, value.scale((-1) ** signs.count("-"))


@st.composite
def _combined(draw, children):
    kind = draw(st.sampled_from(["+", "-", "*", "factor", "()"]))
    sp = draw(spacing)
    if kind in ("+", "-"):
        lt, _, lv = draw(children)
        rt, _, rv = _at_least(draw(children), TERM)
        return f"{lt}{sp}{kind}{sp}{rt}", SUM, lv + rv if kind == "+" else lv - rv
    if kind == "*":
        lt, _, lv = _at_least(draw(children), TERM)
        rt, _, rv = _at_least(draw(children), FACTOR)
        return f"{lt}{sp}*{sp}{rt}", TERM, lv * rv
    if kind == "factor":
        return draw(_factors(children))
    text, _, value = draw(children)
    return f"({sp}{text}{sp})", ATOM, value


expressions = st.recursive(_factors(expression_atoms), _combined, max_leaves=8)


@given(expressions)
def test_parse_agrees_with_direct_evaluation(node):
    text, _, value = node
    assert parse_polynomial(text, R2) == value


@given(
    st.integers(1, 3).flatmap(
        lambda cols: st.lists(
            st.lists(polynomials(max_terms=3), min_size=cols, max_size=cols),
            min_size=1,
            max_size=3,
        )
    ),
    spacing,
)
def test_matrix_format_parse_round_trip(rows, sp):
    text = "[" + f",{sp}".join(
        "[" + f",{sp}".join(format_polynomial(p) for p in row) + "]" for row in rows
    ) + "]"
    assert parse_matrix(text, R2) == PolyMatrix(R2, rows)


def test_parse_matrix_errors():
    assert parse_matrix("[[x*-y^2]]", R2).entry(0, 0) == -poly("x*y^2")
    for text, message in [
        ("[[x, y], [x]]", "ragged matrix rows"),
        ("[[x, y], [x, y]", "unbalanced '[' in matrix (at position 0)"),
        ("[[x, y], [x, y", "unbalanced '[' in matrix (at position 9)"),
        ("[[x, y]]]", "unexpected token ']' (at position 8)"),
        ("[[x y]]", "unexpected token 'y' (at position 4)"),
        ("[[]]", "unexpected token ']' (at position 2)"),
        ("x", "expected '[', got 'x' (at position 0)"),
        ("[[x, w]]", "unknown variable 'w' (at position 5)"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_matrix(text, R2)
        assert str(exc.value) == message, text


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polynomials(), polynomials())
def test_derivative_product_rule(p, q):
    dp = p.derivative("x")
    dq = q.derivative("x")
    assert (p * q).derivative("x") == dp * q + p * dq


# --- arithmetic against a term-map oracle --------------------------------
# The reference keeps every coefficient a Fraction and multiplies out powers
# one factor at a time, independently of Polynomial's int coefficients,
# trusted constructor and square-and-multiply.

def _ref(p):
    return {e: Fraction(c) for e, c in p.items()}


def _ref_nonzero(terms):
    return {e: c for e, c in terms.items() if c != 0}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _ref_nonzero(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_nonzero(out)


def _ref_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_scale(a, c):
    return _ref_nonzero({e: k * Fraction(c) for e, k in a.items()})


def _ref_derivative(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def assert_canonical(p):
    """Every stored coefficient is an int, or a Fraction that is not integral."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


# halves, so that sums and products often cancel their denominators
half_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(lambda c: c != 0)
scalars = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    polynomials(coefficients=half_coeffs),
    polynomials(coefficients=half_coeffs),
    scalars,
    st.integers(0, 5),
    st.integers(0, 1),
)
def test_arithmetic_matches_term_map_oracle(p, q, c, k, i):
    a, b = _ref(p), _ref(q)
    cases = [
        (p + q, _ref_add(a, b)),
        (p - q, _ref_add(a, b, -1)),
        (-p, _ref_scale(a, -1)),
        (p * q, _ref_mul(a, b)),
        (p.scale(c), _ref_scale(a, c)),
        (p.derivative(i), _ref_derivative(a, i)),
        (p**k, _ref_pow(a, k, R2.nvars)),
    ]
    for got, want in [(p, a), (q, b)] + cases:
        assert_canonical(got)
        assert got.terms == want


def test_constructors_store_canonical_coefficients():
    p = Polynomial(R2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 0.5, (1, 1): 0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): Fraction(1, 2)}
    assert_canonical(p)
    for q in (
        R2.constant(Fraction(6, 3)),
        R2.constant(True),
        R2.variable("y"),
        poly("4/2*x - 2/4*y + 3"),
        poly("(1/2*x + 1/2)^2 * 4"),
    ):
        assert_canonical(q)
    assert type(R2.zero().coefficient((0, 0))) is int
    assert type(poly("x").constant_coefficient()) is int


@pytest.mark.parametrize("k", range(1, 20))
def test_power_squares_only_while_bits_remain(k, monkeypatch):
    """Square-and-multiply takes one product per set bit of k and one
    squaring per bit after the first: none after the last bit."""
    base = poly("x + 1")
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    base**k
    assert len(products) == bin(k).count("1") + k.bit_length() - 1


def test_expansion_bound_refuses_before_multiplying(monkeypatch):
    """A product may form EXPANSION_BOUND term pairs and a power of a t-term
    base may have that many degree-e monomials in t symbols; one more is a
    ParseError at the operator, raised before any product is taken."""
    assert EXPANSION_BOUND == 256
    assert len(poly("(x + y)^15 * (x + y)^15")) == 31
    assert len(poly("(x + y)^255")) == 256
    assert len(poly("(x + y + 1)^21")) == 253
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for text, at in [("(x + y)^256", 7), ("(x + y + 1)^100", 11), ("x + y - (x + y + 1)^22", 19)]:
        with pytest.raises(ParseError, match="power may expand to .* over the bound 256") as exc:
            poly(text)
        assert exc.value.position == at
    assert products == []
    with pytest.raises(ParseError, match="product may expand to 272 terms") as exc:
        poly("(x + y)^15 * (x + y)^16")
    assert exc.value.position == 11


def test_substitute_matches_expansion():
    p = poly("x^2 + y")
    image = p.substitute({"x": poly("x + y"), "y": poly("y^2")})
    assert image == poly("(x + y)^2 + y^2")


# --- matrices, determinants, minors -------------------------------------

def test_matrix_shape_and_symmetry():
    a, b, c = poly("x"), poly("y"), poly("x + y")
    m = PolyMatrix(R2, [[a, b], [b, c]])
    assert m.is_square() and m.is_symmetric()
    n = PolyMatrix(R2, [[a, b], [c, a]])
    assert not n.is_symmetric()
    with pytest.raises(ValueError):
        PolyMatrix(R2, [[a, b], [a]])
    with pytest.raises(RingMismatchError):
        PolyMatrix(R2, [[parse_polynomial("x", R3)]])


def test_minors_lexicographic_example():
    a, b, c = poly("x"), poly("y"), poly("x + y")
    m = PolyMatrix(R2, [[a, b], [b, c]])
    assert minors(m, 1) == (a, b, b, c)
    assert minors(m, 2) == (a * c - b * b,)
    assert minors(m, 3) == ()
    with pytest.raises(ValueError):
        minors(m, 0)


def leibniz(rows, ring):
    """Oracle: the sum over permutations of signed products of entries."""
    total = ring.zero()
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = ring.constant(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def oracle_minors(m, k):
    return tuple(
        leibniz([[m.entry(i, j) for j in cols] for i in rows], m.ring)
        for rows in combinations(range(m.rows), k)
        for cols in combinations(range(m.cols), k)
    )


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return PolyMatrix(
        R2, [[draw(polynomials(max_terms=2)) for _ in range(cols)] for _ in range(rows)]
    )


@given(matrices())
def test_minors_match_leibniz_oracle(m):
    for k in range(1, min(m.rows, m.cols) + 1):
        assert minors(m, k) == oracle_minors(m, k)
    assert minors(m, min(m.rows, m.cols) + 1) == ()
    if m.is_square():
        assert determinant(m) == leibniz(m.entries(), R2)
    else:
        with pytest.raises(ValueError):
            determinant(m)


@given(matrices())
def test_leading_minors_match_per_step_minors(m):
    """Level j of the one prefix pass is what a minors call on the first j
    rows gives, values, order and zeros included."""
    levels = leading_minors(m)
    assert len(levels) == m.rows
    for j, level in enumerate(levels, start=1):
        assert level == minors(PolyMatrix(m.ring, m.entries()[:j]), j)


def test_leading_minors_keep_zeros_and_stop_at_the_columns():
    x, y, zero = poly("x"), poly("y"), R2.zero()
    m = PolyMatrix(R2, [[x, zero], [y, zero], [x, y]])
    assert leading_minors(m) == ((x, zero), (zero,), ())


@given(st.integers(1, 4), st.data())
def test_minors_of_symmetric_matrix_are_symmetric(size, data):
    upper = {
        (i, j): data.draw(polynomials(max_terms=2))
        for i in range(size)
        for j in range(i, size)
    }
    m = PolyMatrix(
        R2, [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)]
    )
    for k in range(1, size + 1):
        subsets = list(combinations(range(size), k))
        values = dict(zip([(a, b) for a in subsets for b in subsets], minors(m, k)))
        for (a, b), value in values.items():
            assert value == values[b, a]


def test_n9_corpus_case_det_h_and_a_minors():
    """The largest matrices the runtime meets: H is 6 x 6 at n = 9, and
    `a` takes its 5 x 5 minors."""
    inp = build_input(_dkp_case(2, 9), "given")
    assert determinant(inp.h) == leibniz(inp.h.entries(), inp.ring)
    assert minors(inp.h, inp.n - 4) == oracle_minors(inp.h, inp.n - 4)


def test_jacobian_example():
    j = jacobian(R3, [parse_polynomial("x*y", R3), parse_polynomial("z^2", R3)])
    assert j.rows == 2 and j.cols == 3
    assert j.entry(0, 0) == parse_polynomial("y", R3)
    assert j.entry(0, 1) == parse_polynomial("x", R3)
    assert j.entry(1, 2) == parse_polynomial("2*z", R3)


# --- integer linear algebra ---------------------------------------------

def _fraction_det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_int_determinant_matches_rational_elimination(rows):
    assert int_determinant(rows) == _fraction_det(rows)


def test_int_determinant_edge_cases():
    assert int_determinant([]) == 1
    assert int_determinant([[7]]) == 7
    with pytest.raises(ValueError):
        int_determinant([[1, 2]])


def test_corank_at_origin_examples():
    one, zero = R2.one(), R2.zero()
    x = poly("x")
    ident = PolyMatrix(R2, [[one, zero], [zero, one]])
    assert corank_at_origin(ident) == 0
    m = PolyMatrix(R2, [[x, zero], [zero, one]])
    assert corank_at_origin(m) == 1
    m2 = PolyMatrix(R2, [[x, x], [x, x]])
    assert corank_at_origin(m2) == 2
    rect = evaluate_matrix_at_origin(PolyMatrix(R2, [[one, zero, zero]]))
    assert fraction_matrix_rank(rect) == 1
