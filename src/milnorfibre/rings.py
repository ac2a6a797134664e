"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable term maps ``exponent tuple -> coefficient``, where
a coefficient is an int when it is integral and a Fraction otherwise; never a
float.  Everything here is exact; no floating point enters at any stage.
Arithmetic results are built by a trusted constructor that skips the
validation of Polynomial(...), since their terms are valid by construction.
Sums, products and powers run on bare term maps, so the parser builds each
polynomial without intermediate Polynomial objects and makes one at the end.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, itemgetter, le
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ExponentError,
    ParseError,
    RingMismatchError,
    UnknownVariableError,
)

_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Ring:
    """A polynomial ring over Q with named variables."""

    variables: tuple[str, ...]

    def __post_init__(self):
        if not self.variables:
            raise ValueError("ring needs at least one variable")
        for v in self.variables:
            if not _VAR_RE.fullmatch(v):
                raise ValueError(f"bad variable name: {v!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")

    def __eq__(self, other) -> bool:
        # a job compares its ring with itself on every ring check, so the
        # identity test comes first; __hash__ stays the dataclass's
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variables == other.variables

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return _poly(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = _coefficient(c)
        return _poly(self, {(0,) * self.nvars: c} if c else {})

    def variable(self, name: str) -> "Polynomial":
        i = self.index(name)
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return _poly(self, {expo: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(v) for v in self.variables)


def monomial_degree(expo: tuple[int, ...]) -> int:
    return sum(expo)


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def _coefficient(c) -> int | Fraction:
    """Any exact rational (an int, a Fraction, or what Fraction accepts) in
    canonical form: an int when it is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(terms: dict) -> dict:
    """terms with every integral Fraction replaced by its int, in place."""
    for expo, coeff in terms.items():
        if type(coeff) is not int and coeff.denominator == 1:
            terms[expo] = coeff.numerator
    return terms


def _terms_add(acc: dict, b: dict) -> dict:
    """The term map acc + b, added into acc, without the terms that cancel."""
    for expo, coeff in b.items():
        new = acc.get(expo, 0) + coeff
        if new:
            acc[expo] = new
        else:
            acc.pop(expo, None)
    return acc


def _terms_neg(a: dict) -> dict:
    return {expo: -coeff for expo, coeff in a.items()}


def _terms_mul(a: dict, b: dict) -> dict:
    """The term map a * b, without the terms that cancel."""
    out: dict[tuple[int, ...], int | Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expo = tuple(map(add, e1, e2))
            new = out.get(expo, 0) + c1 * c2
            if new:
                out[expo] = new
            else:
                out.pop(expo, None)
    return out


def _terms_pow(base: dict, e: int, one: tuple[int, ...]) -> dict:
    """The term map base^e by square and multiply: one product per set bit
    of e and one squaring per bit after the first.  one is the exponent of
    the monomial 1."""
    power = {one: 1}
    while e:
        if e & 1:
            power = _terms_mul(power, base)
        e >>= 1
        if e:
            base = _terms_mul(base, base)
    return power


def _poly(ring: Ring, terms: dict[tuple[int, ...], int | Fraction]) -> "Polynomial":
    """Trusted constructor: terms must be nonzero canonical coefficients keyed
    by exponent tuples of the ring's length, and are stored as given."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "ring", ring)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


class Polynomial:
    """Immutable exact polynomial: a map from exponent tuples to nonzero
    coefficients, each an int where integral and a Fraction otherwise."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[tuple[int, ...], int | Fraction]):
        clean = {}
        for expo, coeff in terms.items():
            coeff = _coefficient(coeff)
            if coeff == 0:
                continue
            if len(expo) != ring.nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo!r}")
            clean[tuple(expo)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[tuple[int, ...], int | Fraction]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[tuple[int, ...], int | Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def constant_coefficient(self) -> int | Fraction:
        return self._terms.get((0,) * self.ring.nvars, 0)

    def coefficient(self, expo: tuple[int, ...]) -> int | Fraction:
        return self._terms.get(tuple(expo), 0)

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"rings differ: {self.ring.variables} vs {other.ring.variables}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.ring, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check_ring(other)
        return _poly(self.ring, _canonical(_terms_add(dict(self._terms), other._terms)))

    def __neg__(self) -> "Polynomial":
        return _poly(self.ring, _terms_neg(self._terms))

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check_ring(other)
        return _poly(self.ring, _canonical(_terms_mul(self._terms, other._terms)))

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __radd__(self, other) -> "Polynomial":
        return self + other

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _poly(self.ring, _canonical(_terms_pow(self._terms, k, (0,) * self.ring.nvars)))

    def scale(self, c) -> "Polynomial":
        c = _coefficient(c)
        if c == 0:
            return self.ring.zero()
        return _poly(self.ring, _canonical({e: k * c for e, k in self._terms.items()}))

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    def derivative(self, var: str | int) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = var if isinstance(var, int) else self.ring.index(var)
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for expo, coeff in self._terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            terms[tuple(new)] = coeff * expo[i]
        return _poly(self.ring, _canonical(terms))

    def substitute(self, values: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables; missing variables stay fixed."""
        gens = {v: self.ring.variable(v) for v in self.ring.variables}
        for name, val in values.items():
            self.ring.index(name)
            gens[name] = val if isinstance(val, Polynomial) else self.ring.constant(val)
        result = self.ring.zero()
        for expo, coeff in self._terms.items():
            term = self.ring.constant(coeff)
            for v, e in zip(self.ring.variables, expo):
                if e:
                    term = term * gens[v] ** e
            result = result + term
        return result

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        """Terms sorted for display: degree then exponents, descending."""
        return sorted(
            self._terms.items(),
            key=lambda item: (monomial_degree(item[0]), item[0]),
            reverse=True,
        )

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"

    def __str__(self) -> str:
        return format_polynomial(self)


def format_polynomial(p: Polynomial) -> str:
    """Render a polynomial so that parse(format(p)) == p."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for expo, coeff in p.sorted_terms():
        factors = [
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(p.ring.variables, expo)
            if e
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^()\[\],]")
# whitespace and tokens from the start of a text; the match stops where the
# tokens do, before any trailing whitespace
_TOKENS_RE = re.compile(rf"(?:\s*(?:{_TOKEN_RE.pattern}))*")
_SIGNS = {"+": 1, "-": -1}
# the most terms a product (its term pairs) or a power (the monomials of degree
# e in as many symbols as the base has terms) in a text may expand to, and the
# largest exponent of one term; job texts stay far below it (benchmark jobs
# peak at 16, the parser fuzz at 9), and the slowest power of a sum it admits
# parses in under half a second
EXPANSION_BOUND = 256


class _Parser:
    """Recursive-descent parser over the tokens of one text:

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* atom ('^' integer)?
        atom    := number | name | '(' expr ')'
        list    := '[' item (',' item)* ']'

    A factor's signs apply after its power, so -x^2 and x*-y^2 are negative.
    The rules build term maps {exponent: nonzero coefficient} and
    polynomial() makes one Polynomial of each at the end.
    A product or power that may expand past EXPANSION_BOUND terms, and a
    power of one term with an exponent above it, are refused before they
    are multiplied out.
    A token is its text: a name is an identifier, a number starts with a
    decimal digit, and an operator is itself; '' is the sentinel after the
    last token.  One match checks that the text is tokens and whitespace,
    one findall splits it, and a token's position is found only for an
    error.
    """

    def __init__(self, text: str, ring: Ring):
        self.ring = ring
        self.one = (0,) * ring.nvars  # the exponent of the monomial 1
        self.text = text
        rest = text[_TOKENS_RE.match(text).end():]
        if rest.strip():
            where = len(text) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[where]!r}", where)
        self.toks: list[str] = _TOKEN_RE.findall(text)
        self.toks.append("")
        self.i = 0

    def next(self) -> str:
        # every rule that takes the sentinel raises, so i never passes it
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, cls, message: str, at: int) -> ParseError:
        """cls(message) at the position of token at; the sentinel's is the
        end of the text."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return cls(message, starts[at] if at < len(starts) else len(self.text))

    def parse(self, rule):
        """rule() over the whole text."""
        result = rule()
        if self.toks[self.i]:
            raise self.error(ParseError, f"unexpected token {self.toks[self.i]!r}", self.i)
        return result

    def polynomial(self) -> Polynomial:
        return _poly(self.ring, _canonical(self.expr()))

    def expr(self) -> dict:
        # every rule returns a map of its own, so the sum adds into it
        result = self.term()
        while self.toks[self.i] in _SIGNS:
            op = self.next()
            other = self.term()
            _terms_add(result, other if op == "+" else _terms_neg(other))
        return result

    def term(self) -> dict:
        result = self.factor()
        while self.toks[self.i] == "*":
            at = self.i
            self.i += 1
            other = self.factor()
            self.bound("product", len(result) * len(other), at)
            result = _terms_mul(result, other)
        return result

    def factor(self) -> dict:
        sign = 1
        while self.toks[self.i] in _SIGNS:
            sign *= _SIGNS[self.next()]
        base = self.atom()
        if self.toks[self.i] == "^":
            at = self.i
            self.i += 1
            e = self.exponent()
            if len(base) > 1:
                self.bound("power", comb(len(base) + e - 1, e), at)
            elif e > EXPANSION_BOUND:
                # one term cannot add terms, but its coefficient grows with e
                raise self.error(ParseError, f"exponent {e} is over the bound {EXPANSION_BOUND}", at)
            base = _terms_pow(base, e, self.one)
        return base if sign > 0 else _terms_neg(base)

    def exponent(self) -> int:
        at = self.i
        tok = self.next()
        if not tok:
            raise self.error(ParseError, "missing exponent after '^'", at)
        if tok == "-":
            raise self.error(ExponentError, f"negative exponent {'-' + self.next()!r}", at)
        if not tok[0].isdecimal() or "/" in tok:
            raise self.error(ExponentError, f"exponent must be a nonnegative integer, got {tok!r}", at)
        return self.numeral(tok, at)

    def atom(self) -> dict:
        at = self.i
        tok = self.next()
        if not tok:
            raise self.error(ParseError, "unexpected end of input", at)
        if tok.isidentifier():
            if tok not in self.ring.variables:
                raise self.error(UnknownVariableError, f"unknown variable {tok!r}", at)
            i = self.ring.variables.index(tok)
            return {self.one[:i] + (1,) + self.one[i + 1:]: 1}
        if tok[0].isdecimal():
            num, _, den = tok.partition("/")
            value, den = self.numeral(num, at), self.numeral(den, at) if den else 1
            if den == 0:
                raise self.error(ParseError, "zero denominator", at)
            return {self.one: value if den == 1 else Fraction(value, den)} if value else {}
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise self.error(ParseError, "missing closing parenthesis", at)
            return inner
        raise self.error(ParseError, f"unexpected token {tok!r}", at)

    def bracketed(self, item) -> list:
        at = self.i
        tok = self.next()
        if tok != "[":
            raise self.error(ParseError, f"expected '[', got {tok!r}", at)
        items = [item()]
        while self.toks[self.i] == ",":
            self.i += 1
            items.append(item())
        close = self.i
        tok = self.next()
        if not tok:
            raise self.error(ParseError, "unbalanced '[' in matrix", at)
        if tok != "]":
            raise self.error(ParseError, f"unexpected token {tok!r}", close)
        return items

    def numeral(self, digits: str, at: int) -> int:
        """int(digits), or a ParseError at token at past Python's int string
        limit."""
        try:
            return int(digits)
        except ValueError:
            message = f"numeral of {len(digits)} digits is over Python's int string limit"
            raise self.error(ParseError, message, at) from None

    def bound(self, what: str, terms: int, at: int) -> None:
        """A ParseError at token at when a product or power may expand to
        more than EXPANSION_BOUND terms."""
        if terms > EXPANSION_BOUND:
            raise self.error(
                ParseError, f"{what} may expand to {terms} terms, over the bound {EXPANSION_BOUND}", at
            )


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse '+ - * ^ ( )' expressions in the ring's variables.

    Integer and p/q rational coefficients are accepted; exponents must be
    nonnegative integers.  Errors carry the character position.
    """
    parser = _Parser(text, ring)
    return parser.parse(parser.polynomial)


def parse_matrix(text: str, ring: Ring) -> PolyMatrix:
    """Parse a matrix '[[p, q], [r, s]]' of polynomials; error positions
    count from the start of text."""
    parser = _Parser(text, ring)
    rows = parser.parse(lambda: parser.bracketed(lambda: parser.bracketed(parser.polynomial)))
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("ragged matrix rows")
    return PolyMatrix(ring, rows)


# --- matrices ---------------------------------------------------------------

class PolyMatrix:
    """Immutable rectangular matrix of polynomials over one ring."""

    __slots__ = ("ring", "rows", "cols", "_entries")

    def __init__(self, ring: Ring, entries: Sequence[Sequence[Polynomial]]):
        rows = len(entries)
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        cols = len(entries[0])
        if cols == 0:
            raise ValueError("matrix needs at least one column")
        packed = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.ring != ring:
                    raise RingMismatchError("matrix entry over a different ring")
            packed.append(tuple(row))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", tuple(packed))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> Polynomial:
        return self._entries[i][j]

    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.ring, self._entries))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.ring,
            [[self._entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._entries[i][j] == self._entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        return PolyMatrix(
            self.ring,
            [
                [
                    sum(
                        (self._entries[i][k] * other._entries[k][j] for k in range(self.cols)),
                        self.ring.zero(),
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
        )

    def left_multiply_constants(self, coeffs: Sequence[Sequence]) -> "PolyMatrix":
        """Left-multiply by a matrix of rational constants."""
        const = PolyMatrix(
            self.ring, [[self.ring.constant(c) for c in row] for row in coeffs]
        )
        return const @ self

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(format_polynomial(p) for p in row) for row in self._entries
        )
        return f"PolyMatrix([{body}])"


def determinant_and_minors(m: PolyMatrix) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """det m and the nonzero (rows - 1)-minors of a square m, lexicographic
    in (row subset, column subset), from one pass of the minors engine.

    Every row subset of size rows - 1 is a head of itself, so the pass at
    size rows - 1 ends with all those minors; det m is one level more, the
    minors on the first rows - 1 rows expanded along the last row.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    top = {((), ()): m.ring.one()}
    for top in _minor_levels(m, m.rows - 1):
        pass
    (full,) = _minor_levels(m, m.rows, m.rows, top)
    det = next(iter(full.values()), m.ring.zero())
    return det, tuple(top[key] for key in sorted(top))


def _minor_levels(
    m: PolyMatrix, size: int, first: int = 1, prev: dict | None = None
) -> Iterator[dict]:
    """Levels k = first..size of the minors engine.

    Level k maps (row subset, column subset) to the nonzero k x k minor, for
    the row subsets inside range(rows - size + k): the heads of the
    size-subsets.  Each nonzero (k-1)-minor on rows R and columns C times each
    nonzero entry (r, c), with r after R and c not in C, is a Laplace term
    along the last row of the minor on R + (r,) and C with c inserted, of sign
    (-1)^(k-1+i) for c's place i there.  Zero sums are dropped once per level,
    and only the previous level is kept.  prev, given with first > 1, is
    level first - 1, so the engine continues from it.
    """
    nonzero = [[(c, e) for c, e in enumerate(row) if e] for row in m.entries()]
    if prev is None:
        prev = {((), ()): m.ring.one()}
    for k in range(first, size + 1):
        sums = {}
        for (rows, cols), minor in prev.items():
            for r in range(rows[-1] + 1 if rows else 0, m.rows - size + k):
                for c, entry in nonzero[r]:
                    if c in cols:
                        continue
                    i = bisect(cols, c)
                    key = rows + (r,), cols[:i] + (c,) + cols[i:]
                    piece = entry * minor
                    if (k - 1 + i) % 2:
                        piece = -piece
                    sums[key] = sums[key] + piece if key in sums else piece
        prev = {key: total for key, total in sums.items() if total}
        yield prev


def leading_minors(
    m: PolyMatrix, head: tuple[tuple, ...] = ()
) -> tuple[tuple[tuple[tuple[int, ...], Polynomial], ...], ...]:
    """For j = 1..rows, the nonzero j x j minors of the first j rows, each as
    (column subset, minor) in column-lex order; a level is empty when every
    such minor vanishes, as it is once j exceeds the columns.

    One pass of the minors engine at size = rows: its level j has the single
    row subset range(j), so it holds exactly these minors.  head, the
    leading minors of the first len(head) rows of m, is kept, and the pass
    continues from its top level.
    """
    j = len(head)
    prev = {(tuple(range(j)), cols): minor for cols, minor in head[-1]} if head else None
    return tuple(head) + tuple(
        tuple(sorted(((cols, minor) for (_, cols), minor in level.items()), key=itemgetter(0)))
        for level in _minor_levels(m, m.rows, j + 1, prev)
    )


def jacobian(ring: Ring, functions: Sequence[Polynomial]) -> PolyMatrix:
    """Jacobian matrix: one row per function, one column per variable."""
    if not functions:
        raise ValueError("jacobian of an empty family")
    return PolyMatrix(
        ring,
        [[f.derivative(i) for i in range(ring.nvars)] for f in functions],
    )


def evaluate_matrix_at_origin(m: PolyMatrix) -> tuple[tuple[int | Fraction, ...], ...]:
    return tuple(
        tuple(p.constant_coefficient() for p in row) for row in m.entries()
    )


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(n - 1):
        if a[col][col] == 0:
            pivot_row = next((r for r in range(col + 1, n) if a[r][col] != 0), None)
            if pivot_row is None:
                return 0
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[i][j] * a[col][col] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def reduced_row_echelon(
    rows: Sequence[Sequence[int | Fraction]],
) -> tuple[list[list[int | Fraction]], list[int]]:
    """Reduced row-echelon form over Q: the nonzero rows, each with a 1 at
    its leftmost nonzero column, its pivot, and 0 in every other row's pivot
    column; and the pivot columns, ascending.  Their number is the rank.
    Entries are canonical: ints where integral.

    The elimination runs on integer rows, each row's denominators cleared
    and its content divided out after every step, and divides each row by
    its pivot entry only at the end, so no Fraction is formed before then."""
    work = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            work.append(list(row))
            continue
        row = list(map(_coefficient, row))
        scale = lcm(*(x.denominator for x in row if type(x) is not int))
        work.append([int(x * scale) for x in row] if scale != 1 else row)
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        for pivot in range(rank, len(work)):
            if work[pivot][col]:
                break
        else:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        pv = top[col]
        for r, row in enumerate(work):
            factor = row[col]
            if r != rank and factor:
                new = [pv * x - factor * y for x, y in zip(row, top)]
                content = gcd(*new)
                work[r] = [x // content for x in new] if content > 1 else new
        pivots.append(col)
        if len(pivots) == len(work):
            break
    # read the rows only now: each elimination step replaces the row lists
    echelon = []
    for row, col in zip(work, pivots):
        pv = row[col]
        echelon.append(row if pv == 1 else [x // pv if x % pv == 0 else Fraction(x, pv) for x in row])
    return echelon, pivots


def corank_at_origin(m: PolyMatrix) -> int:
    """min(rows, cols) minus the rank of the constant part at the origin."""
    _, pivots = reduced_row_echelon(evaluate_matrix_at_origin(m))
    return min(m.rows, m.cols) - len(pivots)
