"""Polynomials, parsing, matrices, determinants, minors."""

import re
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from milnorfibre import rings
from milnorfibre.corpus import _dkp_case, build_input, builtin_cases
from milnorfibre.errors import ParseError, RingMismatchError, UnknownVariableError
from milnorfibre.rings import (
    EXPANSION_BOUND,
    PolyMatrix,
    Polynomial,
    Ring,
    corank_at_origin,
    evaluate_matrix_at_origin,
    format_polynomial,
    int_determinant,
    jacobian,
    leading_minors,
    parse_matrix,
    parse_polynomial,
    reduced_row_echelon,
)
from oracles import (
    DescentParser,
    descent_parse_matrix,
    descent_parse_polynomial,
    fraction_matrix_rank,
    leibniz,
    oracle_minors,
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


# one token after optional whitespace, named by its kind
_ONE_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()\[\],]))"
)


class _PolynomialParser(DescentParser):
    """Test-only oracle: the grammar's rules evaluated with Polynomial
    arithmetic (sums, products, square-and-multiply powers) instead of term
    maps, with the same bound checks, messages and positions.  It tokenizes
    apart from the parser: one match per token, which records each token's
    kind and position as it goes.  Polynomial arithmetic runs on the same
    term-map routines; the Fraction-only reference further down checks it
    independently."""

    def __init__(self, text, ring):
        self.ring = ring
        self.toks, self.kinds, self.starts = [], [], []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _ONE_TOKEN.match(text, pos)
            if m is None:
                where = len(text) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[where]!r}", where)
            self.toks.append(m.group(m.lastgroup))
            self.kinds.append(m.lastgroup)
            self.starts.append(m.start(m.lastgroup))
            pos = m.end()
        self.toks.append("")
        self.kinds.append("end")
        self.starts.append(len(text))
        self.i = 0

    def error(self, cls, message, at):
        return cls(message, self.starts[at])

    def polynomial(self):
        return self.expr()

    def expr(self):
        result = self.term()
        while self.toks[self.i] in ("+", "-"):
            op = self.next()
            result = result + self.term() if op == "+" else result - self.term()
        return result

    def term(self):
        result = self.factor()
        while self.toks[self.i] == "*":
            at = self.i
            self.next()
            other = self.factor()
            self.bound("product", len(result) * len(other), at)
            result = result * other
        return result

    def factor(self):
        sign = 1
        while self.toks[self.i] in ("+", "-"):
            sign *= -1 if self.next() == "-" else 1
        base = self.atom()
        if self.toks[self.i] == "^":
            at = self.i
            self.next()
            e = self.exponent()
            if len(base) > 1:
                self.bound("power", comb(len(base) + e - 1, e), at)
            elif e > EXPANSION_BOUND:
                raise self.error(ParseError, f"exponent {e} is over the bound {EXPANSION_BOUND}", at)
            base = base**e
        return base if sign > 0 else -base

    def atom(self):
        at = self.i
        tok, kind = self.next(), self.kinds[at]
        if kind == "end":
            raise self.error(ParseError, "unexpected end of input", at)
        if kind == "number":
            num, _, den = tok.partition("/")
            value, den = self.numeral(num, at), self.numeral(den, at) if den else 1
            if den == 0:
                raise self.error(ParseError, "zero denominator", at)
            return self.ring.constant(Fraction(value, den))
        if kind == "name":
            if tok not in self.ring.variables:
                raise self.error(UnknownVariableError, f"unknown variable {tok!r}", at)
            return self.ring.variable(tok)
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise self.error(ParseError, "missing closing parenthesis", at)
            return inner
        raise self.error(ParseError, f"unexpected token {tok!r}", at)


def oracle_parse(text, ring=R2):
    parser = _PolynomialParser(text, ring)
    return parser.parse(parser.polynomial)


def _parse_outcome(parse, text):
    """parse(text, R2), or the error's class, message and position."""
    try:
        return parse(text, R2)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


@given(expressions)
def test_parse_agrees_with_direct_evaluation(node):
    text, _, value = node
    got = parse_polynomial(text, R2)
    assert got == value == oracle_parse(text)
    assert_canonical(got)


# token soup, for every kind of parse error, and operand-operator chains,
# mostly well formed, with powers and products near EXPANSION_BOUND; the
# soup has characters no token takes (non-ASCII letters, a lone '/', '.',
# '$'), a non-ASCII decimal digit, which a number takes, and whitespace
# other than a space
parse_tokens = st.sampled_from(
    ["x", "y", "w", "0", "1", "2", "3/2", "4/2", "0/5", "1/0", "16", "300", "(x + y + 1)",
     "+", "-", "*", "^", "(", ")", " ", "/", "!", "é", "ж", ".", "$", "\u0663", "\t",
     "\u3000", "[", "]", ","]
)
operands = st.sampled_from(
    ["x", "y", "2", "3/2", "4/2", "0/5", "7", "16", "-x", "(x - y)", "(x + y + 1)", "(2*x*y)",
     "(1/2*x - 2*y + 1)", "w"]
)
operators = st.sampled_from(["+", " - ", "*", "^", "*-", "-"])
parse_texts = st.one_of(
    st.lists(parse_tokens, max_size=12).map("".join),
    st.tuples(operands, st.lists(st.tuples(operators, operands), max_size=6)).map(
        lambda chain: chain[0] + "".join(op + arg for op, arg in chain[1])
    ),
)


@given(parse_texts)
@example("(x + y)^15 * (x + y)^16")
@example("x - (x + y + 1)^22")
@example("(2*x*y)^300")
@example("4/2*x*-1/2 + 0/5*y^3 - (y - x)^16")
@example("x + é*y")
@example("x/ y")
@example("1.5*x")
@example("$x ")
@example("x^\u0663 - y")
@example("x\t*\u3000y ")
@settings(max_examples=150)
def test_term_map_parse_matches_polynomial_oracle(text):
    """The term-map parser against the Polynomial-arithmetic oracle: the same
    polynomial, or the same error at the same position."""
    assert _parse_outcome(parse_polynomial, text) == _parse_outcome(oracle_parse, text)


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


# matrix texts: rows of operands, ragged now and then, some with a token of
# the soup put in, which may unbalance a bracket or break an entry
_matrix_cells = st.one_of(operands, parse_texts.filter(lambda t: len(t) < 24))


@st.composite
def matrix_texts(draw):
    cols = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(_matrix_cells, min_size=cols, max_size=cols + draw(st.sampled_from([0, 0, 0, 1]))),
            min_size=1,
            max_size=3,
        )
    )
    text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(parse_tokens) + text[at:]
    return text


def _parsed_or_error(parse, text):
    """parse(text, R2) as its term maps in order, or the error's class,
    message and position."""
    try:
        got = parse(text, R2)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    if isinstance(got, Polynomial):
        return list(got.items())
    return [[list(p.items()) for p in row] for row in got.entries()]


@given(st.one_of(parse_texts, matrix_texts()))
@example("x + é*y")  # unexpected character
@example("(x + y) * (x -")  # unexpected end of input
@example("[[x, y], [x, y]] )")  # unexpected token
@example("[[x, w]]")  # unknown variable
@example("[[1/0*x]]")  # zero denominator
@example("[[(x + y, 1]]")  # missing closing parenthesis
@example("x^")  # missing exponent
@example("[[x^-2]]")  # negative exponent
@example("x^3/2")  # fractional exponent
@example("[[(x + y)^15 * (x + y)^16]]")  # product over the bound
@example("(x + y + 1)^22")  # power over the bound
@example("[[(2*x*y)^300]]")  # one-term power over the bound
@example("y - " + "9" * 5000 + "*x")  # numeral over the int string limit
@example("[[(x + y + 1)^" + "9" * 3000 + ", 0], [0, 1]]")  # term count past that limit
@example("[[x, y], [x]]")  # ragged rows
@example("[[x, y], [x, y]")  # unbalanced '['
def test_single_pass_parser_matches_recursive_descent_oracle(text):
    """parse_polynomial and parse_matrix against the recursive-descent
    oracle, on polynomial and matrix texts, valid and invalid: the same
    term maps in the same order, or an error of the same class, message and
    position."""
    for parse, oracle in (
        (parse_polynomial, descent_parse_polynomial),
        (parse_matrix, descent_parse_matrix),
    ):
        assert _parsed_or_error(parse, text) == _parsed_or_error(oracle, text)


def test_repeated_matrix_entries_share_one_polynomial():
    """Entries of the same tokens parse once: the 0 and 1 of an identity
    block and a mirrored pair written alike are one object each.  A
    mirrored pair written differently parses to two equal polynomials, and
    the matrix is symmetric."""
    m = parse_matrix("[[x, x + 2*y, 0], [x + 2*y, 1, 0], [0, 0, 1]]", R2)
    e = m.entries()
    assert e[0][2] is e[1][2] is e[2][0] is e[2][1]
    assert e[1][1] is e[2][2]
    assert e[0][1] is e[1][0]
    assert m == descent_parse_matrix("[[x, x + 2*y, 0], [x + 2*y, 1, 0], [0, 0, 1]]", R2)
    ring = Ring(("x1", "x2", "x3"))
    m = parse_matrix("[[x1, x2 + x3], [x3 + x2, x1]]", ring)
    assert m.entry(0, 1) is not m.entry(1, 0)
    assert m.entry(0, 1) == m.entry(1, 0)
    assert m.is_symmetric()
    assert hash(m) == hash(descent_parse_matrix("[[x1, x2 + x3], [x3 + x2, x1]]", ring))


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
    squaring per bit after the first: none after the last bit.  Polynomial
    powers and the parser's powers share it, and it multiplies term maps
    with rings._terms_mul, which is counted."""
    base = poly("x + 1")
    products = []
    mul = rings._terms_mul
    monkeypatch.setattr(rings, "_terms_mul", lambda a, b: products.append(1) or mul(a, b))
    base**k
    assert len(products) == bin(k).count("1") + k.bit_length() - 1
    products.clear()
    poly(f"(x + 1)^{k}")
    assert len(products) == bin(k).count("1") + k.bit_length() - 1


def test_expansion_bound_refuses_before_multiplying(monkeypatch):
    """A product may form EXPANSION_BOUND term pairs and a power of a t-term
    base may have that many degree-e monomials in t symbols; one more is a
    ParseError at the operator, raised before any product is taken.  The
    parser multiplies term maps with rings._terms_mul, which is counted."""
    assert EXPANSION_BOUND == 256
    products = []
    mul = rings._terms_mul
    monkeypatch.setattr(rings, "_terms_mul", lambda a, b: products.append(1) or mul(a, b))
    assert len(poly("(x + y)^15 * (x + y)^15")) == 31
    assert len(poly("(x + y)^255")) == 256
    assert len(poly("(x + y + 1)^21")) == 253
    assert products  # the counter sees the parser's products
    products.clear()
    for text, at in [("(x + y)^256", 7), ("(x + y + 1)^100", 11), ("x + y - (x + y + 1)^22", 19)]:
        with pytest.raises(ParseError, match="power may expand to .* over the bound 256") as exc:
            poly(text)
        assert exc.value.position == at
    assert products == []
    with pytest.raises(ParseError, match="product may expand to 272 terms") as exc:
        poly("(x + y)^15 * (x + y)^16")
    assert exc.value.position == 11


def test_exponent_of_one_term_is_bounded():
    """A power of one term adds no terms, but its coefficient grows with the
    exponent: an exponent above EXPANSION_BOUND is a ParseError at the '^',
    raised before the power is taken."""
    assert poly("x^256") == Polynomial(R2, {(256, 0): 1})
    assert poly("(2*x*y)^256").terms == {(256, 256): 2**256}
    for text, at in [("x^257", 1), ("y - (123456789*x)^100000", 17), ("3^1000000", 1)]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exponent .* is over the bound 256") as exc:
            poly(text)
        assert time.perf_counter() - start < 1.0
        assert exc.value.position == at


LONG = "9" * 5000  # over Python's default limit of 4300 digits for an int string


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int string limit"
)
def test_numeral_over_the_int_string_limit_is_a_parse_error():
    """A coefficient, denominator or exponent that Python refuses to read as
    an int is a ParseError at the numeral that names its digit count, with
    no new bound: the interpreter's limit stays the limit."""
    for text, at in [(f"y - {LONG}*x", 4), (f"1/{LONG}*x", 0), (f"x^{LONG}", 2)]:
        with pytest.raises(ParseError, match="numeral of 5000 digits") as exc:
            poly(text)
        assert exc.value.position == at


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


def nonzero_with_columns(values, ncols, k):
    """The nonzero k x k minors of one row subset, given in column-lex order
    over ncols columns, each as (column subset, minor)."""
    return tuple((c, v) for c, v in zip(combinations(range(ncols), k), values, strict=True) if v)


def prefix(m, j):
    return PolyMatrix(m.ring, m.entries()[:j])


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return PolyMatrix(
        R2, [[draw(polynomials(max_terms=2)) for _ in range(cols)] for _ in range(rows)]
    )


@st.composite
def sparse_matrices(draw):
    """Zero-heavy matrices up to 5 x 6 in the shapes of the linear Jacobians
    and padded H: zero rows, zero columns and rows of one nonzero entry, and
    repeated rows, so that sums of products cancel."""
    x, y, zero = poly("x"), poly("y"), R2.zero()
    pool = st.one_of(
        st.sampled_from((R2.one(), -R2.one(), x, y, x + y)), polynomials(max_terms=2)
    )
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1))
    entries = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("zero", "one", "sparse", "repeat")))
        row = [zero] * cols
        if kind == "one":
            row[draw(st.integers(0, cols - 1))] = draw(pool)
        elif kind == "sparse":
            row = [draw(st.one_of(st.just(zero), pool)) for _ in range(cols)]
        elif kind == "repeat" and entries:
            row = draw(st.sampled_from(entries))
        entries.append([zero if c in zero_cols else e for c, e in enumerate(row)])
    return PolyMatrix(R2, entries)


@given(sparse_matrices())
@example(PolyMatrix(R2, [[poly("x"), poly("y")], [poly("x"), poly("y")]]))
def test_sparse_minors_engine_matches_leibniz_oracle(m):
    """The engine multiplies only nonzero minors by nonzero entries: on
    zero-heavy shapes each level of every pass holds exactly the nonzero
    Leibniz minors on the heads of the size-subsets, and every leading
    minor and the determinant agree with the Leibniz oracle (the example's
    2 x 2 minor cancels); a matrix that is not square has no determinant."""
    oracle = {
        (rows, cols): leibniz([[m.entry(i, j) for j in cols] for i in rows], R2)
        for k in range(1, m.rows + 1)
        for rows in combinations(range(m.rows), k)
        for cols in combinations(range(m.cols), k)
    }
    for size in range(1, m.rows + 1):
        for k, level in enumerate(rings._minor_levels(m, size), start=1):
            assert level == {
                (rows, cols): oracle[rows, cols]
                for rows in combinations(range(m.rows - size + k), k)
                for cols in combinations(range(m.cols), k)
                if oracle[rows, cols]
            }
    assert leading_minors(m) == tuple(
        nonzero_with_columns(oracle_minors(prefix(m, j), j), m.cols, j)
        for j in range(1, m.rows + 1)
    )
    if m.is_square():
        assert rings.determinant_and_minors(m)[0] == leibniz(m.entries(), R2)
    else:
        with pytest.raises(ValueError):
            rings.determinant_and_minors(m)


@given(st.one_of(matrices(), sparse_matrices()))
def test_leading_minors_match_per_step_minors(m):
    """Level j of the one prefix pass is the Leibniz minors of the first j
    rows with their zeros dropped: the nonzero values, in column-lex order,
    each with its column subset.  Continued from the tower of any row
    prefix, the pass keeps that tower and gives the same levels."""
    levels = leading_minors(m)
    assert len(levels) == m.rows
    for j, level in enumerate(levels, start=1):
        assert level == nonzero_with_columns(oracle_minors(prefix(m, j), j), m.cols, j)
    for p in range(1, m.rows + 1):
        head = leading_minors(prefix(m, p))
        continued = leading_minors(m, head)
        assert continued == levels
        assert all(a is b for a, b in zip(continued, head))


def test_leading_minors_drop_zeros_and_stop_at_the_columns():
    x, y, zero = poly("x"), poly("y"), R2.zero()
    m = PolyMatrix(R2, [[x, zero], [y, zero], [x, y]])
    assert leading_minors(m) == ((((0,), x),), (), ())
    # an empty level stays empty one row further on
    assert leading_minors(m, leading_minors(prefix(m, 2))) == ((((0,), x),), (), ())
    m = PolyMatrix(R2, [[zero, y], [x, y]])
    assert leading_minors(m) == ((((1,), y),), (((0, 1), -x * y),))


@st.composite
def symmetric_matrices(draw, max_size=5):
    """Symmetric matrices up to 5 x 5, the shapes of H, with zero-heavy
    entries: det H and its (n-4)-minors may cancel or vanish."""
    size = draw(st.integers(1, max_size))
    pool = st.one_of(
        st.just(R2.zero()), st.sampled_from((R2.one(), poly("x"), poly("y"))), polynomials(max_terms=2)
    )
    upper = {(i, j): draw(pool) for i in range(size) for j in range(i, size)}
    return PolyMatrix(R2, [[upper[min(i, j), max(i, j)] for j in range(size)] for i in range(size)])


def separate_calls(m):
    """det m and the nonzero (rows - 1)-minors of m in lex order, from
    separate Leibniz sums; the one 0 x 0 minor is 1."""
    return leibniz(m.entries(), m.ring), tuple(p for p in oracle_minors(m, m.rows - 1) if p)


@given(symmetric_matrices())
@example(PolyMatrix(R2, [[poly("x"), poly("x")], [poly("x"), poly("x")]]))
def test_determinant_and_minors_match_separate_calls(m):
    """det m, one level past the (rows-1)-minors in one pass of the engine,
    is the Leibniz sum; the minors are the Leibniz minors with their zeros
    dropped (the example's det cancels)."""
    assert rings.determinant_and_minors(m) == separate_calls(m)


def test_determinant_and_minors_on_corpus_germs():
    for case in builtin_cases():
        h = build_input(case, "given").h
        assert rings.determinant_and_minors(h) == separate_calls(h), case.name


def test_n9_corpus_case_det_h_and_a_minors():
    """The largest matrices the runtime meets: H is 6 x 6 at n = 9, and
    `a` takes its 5 x 5 minors."""
    inp = build_input(_dkp_case(2, 9), "given")
    assert inp.h.rows - 1 == inp.n - 4
    assert rings.determinant_and_minors(inp.h) == separate_calls(inp.h)


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


@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3), min_size=cols, max_size=cols),
            max_size=6,
        )
    )
)
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
def test_reduced_row_echelon_matches_the_rank_oracle(rows):
    """The pivots count the rank of the old every-row elimination; each row
    has a 1 at its pivot, its leftmost nonzero entry, the other rows a 0
    there; every input row is the combination of the rows its pivot entries
    give; entries are canonical."""
    echelon, pivots = reduced_row_echelon(rows)
    assert len(pivots) == len(echelon) == fraction_matrix_rank(rows)
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(echelon, pivots)):
        assert not any(row[:col]) and row[col] == 1
        assert all(other[col] == 0 for k, other in enumerate(echelon) if k != i)
        assert all(type(x) is int or x.denominator != 1 for x in row)
    for row in rows:
        combination = [sum(row[c] * r[j] for c, r in zip(pivots, echelon)) for j in range(len(row))]
        assert combination == list(row)


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
    assert reduced_row_echelon(rect) == ([[1, 0, 0]], [0])
