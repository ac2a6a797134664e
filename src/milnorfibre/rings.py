"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable term maps ``exponent tuple -> coefficient``, where
a coefficient is an int when it is integral and a Fraction otherwise; never a
float.  Everything here is exact; no floating point enters at any stage.
Arithmetic results are built by a trusted constructor that skips the
validation of Polynomial(...), since their terms are valid by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from operator import le
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


def monomial_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


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
        terms = dict(self._terms)
        for expo, coeff in other._terms.items():
            new = terms.get(expo, 0) + coeff
            if new == 0:
                terms.pop(expo, None)
            else:
                terms[expo] = new
        return _poly(self.ring, _canonical(terms))

    def __neg__(self) -> "Polynomial":
        return _poly(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        self._check_ring(other)
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = monomial_mul(e1, e2)
                new = terms.get(expo, 0) + c1 * c2
                if new == 0:
                    terms.pop(expo, None)
                else:
                    terms[expo] = new
        return _poly(self.ring, _canonical(terms))

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __radd__(self, other) -> "Polynomial":
        return self + other

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()\[\],]))"
)
_SIGNS = {"+": 1, "-": -1}
# the most terms a product (its term pairs) or a power (the monomials of degree
# e in as many symbols as the base has terms) in a text may expand to; job
# texts stay far below it (benchmark jobs peak at 16, the parser fuzz at 9), and
# the slowest power of a sum it admits parses in under half a second
EXPANSION_BOUND = 256


class _Parser:
    """Recursive-descent parser over the tokens of one text:

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* atom ('^' integer)?
        atom    := number | name | '(' expr ')'
        list    := '[' item (',' item)* ']'

    A factor's signs apply after its power, so -x^2 and x*-y^2 are negative.
    A product or power that may expand past EXPANSION_BOUND terms is refused
    before it is multiplied out.
    A token is (kind, text, position): kind is 'number', 'name', the
    operator itself, or 'end' for the sentinel after the last token.
    """

    def __init__(self, text: str, ring: Ring):
        self.ring = ring
        self.toks: list[tuple[str, str, int]] = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                where = len(text) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[where]!r}", where)
            kind = m.lastgroup
            val = m.group(kind)
            self.toks.append((val if kind == "op" else kind, val, m.start(kind)))
            pos = m.end()
        self.toks.append(("end", "", len(text)))
        self.i = 0

    def next(self) -> tuple[str, str, int]:
        # every rule that takes the sentinel raises, so i never passes it
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self, rule):
        """rule() over the whole text."""
        result = rule()
        kind, val, pos = self.toks[self.i]
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while self.toks[self.i][0] in _SIGNS:
            op = self.next()[0]
            result = result + self.term() if op == "+" else result - self.term()
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.toks[self.i][0] == "*":
            pos = self.next()[2]
            other = self.factor()
            _bound_expansion("product", len(result) * len(other), pos)
            result = result * other
        return result

    def factor(self) -> Polynomial:
        sign = 1
        while self.toks[self.i][0] in _SIGNS:
            sign *= _SIGNS[self.next()[0]]
        base = self.atom()
        if self.toks[self.i][0] == "^":
            pos = self.next()[2]
            e = self.exponent()
            if len(base) > 1:
                _bound_expansion("power", comb(len(base) + e - 1, e), pos)
            base = base ** e
        return base if sign > 0 else -base

    def exponent(self) -> int:
        kind, val, pos = self.next()
        if kind == "end":
            raise ParseError("missing exponent after '^'", pos)
        if kind == "-":
            raise ExponentError(f"negative exponent {'-' + self.next()[1]!r}", pos)
        if kind != "number" or "/" in val:
            raise ExponentError(f"exponent must be a nonnegative integer, got {val!r}", pos)
        return int(val)

    def atom(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "number":
            num, _, den = val.partition("/")
            if den and int(den) == 0:
                raise ParseError("zero denominator", pos)
            return self.ring.constant(Fraction(int(num), int(den)) if den else int(num))
        if kind == "name":
            if val not in self.ring.variables:
                raise UnknownVariableError(f"unknown variable {val!r}", pos)
            return self.ring.variable(val)
        if kind == "(":
            inner = self.expr()
            if self.next()[0] != ")":
                raise ParseError("missing closing parenthesis", pos)
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def bracketed(self, item) -> list:
        kind, val, pos = self.next()
        if kind != "[":
            raise ParseError(f"expected '[', got {val!r}", pos)
        items = [item()]
        while self.toks[self.i][0] == ",":
            self.i += 1
            items.append(item())
        kind, val, close = self.next()
        if kind == "end":
            raise ParseError("unbalanced '[' in matrix", pos)
        if kind != "]":
            raise ParseError(f"unexpected token {val!r}", close)
        return items


def _bound_expansion(what: str, terms: int, pos: int) -> None:
    if terms > EXPANSION_BOUND:
        raise ParseError(
            f"{what} may expand to {terms} terms, over the bound {EXPANSION_BOUND}", pos
        )


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse '+ - * ^ ( )' expressions in the ring's variables.

    Integer and p/q rational coefficients are accepted; exponents must be
    nonnegative integers.  Errors carry the character position.
    """
    parser = _Parser(text, ring)
    return parser.parse(parser.expr)


def parse_matrix(text: str, ring: Ring) -> PolyMatrix:
    """Parse a matrix '[[p, q], [r, s]]' of polynomials; error positions
    count from the start of text."""
    parser = _Parser(text, ring)
    rows = parser.parse(lambda: parser.bracketed(lambda: parser.bracketed(parser.expr)))
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


def determinant(m: PolyMatrix) -> Polynomial:
    """Exact determinant: the one full-size minor."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return minors(m, m.rows)[0]


def _minor_levels(m: PolyMatrix, size: int) -> Iterator[dict]:
    """Levels k = 1..size of the minors engine.

    Level k maps (row subset, column subset) to the nonzero k x k minor, for
    every column subset and the row subsets inside range(rows - size + k):
    the heads of the size-subsets.  The minor on rows R and columns C is the
    Laplace expansion along R's last row over the (k-1) x (k-1) minors on
    R's other rows, a head subset of the previous level, so each smaller
    minor is computed once.  Only the previous level is kept.
    """
    entries = m.entries()
    prev = {((), ()): m.ring.one()}
    for k in range(1, size + 1):
        level = {}
        for rows in combinations(range(m.rows - size + k), k):
            bottom, rest = entries[rows[-1]], rows[:-1]
            for cols in combinations(range(m.cols), k):
                total = None
                for i, c in enumerate(cols):
                    if not bottom[c]:
                        continue
                    sub = prev.get((rest, cols[:i] + cols[i + 1:]))
                    if sub is None:  # a zero subminor
                        continue
                    piece = bottom[c] * sub
                    if (k - 1 + i) % 2:
                        piece = -piece
                    total = piece if total is None else total + piece
                if total:
                    level[rows, cols] = total
        yield level
        prev = level


def minors(m: PolyMatrix, size: int) -> tuple[Polynomial, ...]:
    """All size x size minors, lexicographic in (row subset, column subset).

    The top level of the minors engine, with its zeros put back.  Duplicates
    are kept; the symmetric 2x2 example [[a,b],[b,c]] has size-1 minors
    (a, b, b, c).
    """
    if size < 1:
        raise ValueError("minor size must be positive")
    if size > m.rows or size > m.cols:
        return ()
    for top in _minor_levels(m, size):
        pass
    zero = m.ring.zero()
    return tuple(
        top.get(key, zero)
        for key in product(combinations(range(m.rows), size), combinations(range(m.cols), size))
    )


def leading_minors(m: PolyMatrix) -> tuple[tuple[Polynomial, ...], ...]:
    """For j = 1..rows, the j x j minors of the first j rows, in column-lex
    order with zeros kept (none once j exceeds the columns).

    One pass of the minors engine at size = rows: its level j has the single
    row subset range(j), so it holds exactly these minors.
    """
    zero = m.ring.zero()
    return tuple(
        tuple(level.get((tuple(range(j)), cols), zero) for cols in combinations(range(m.cols), j))
        for j, level in enumerate(_minor_levels(m, m.rows), start=1)
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


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over Q."""
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


def corank_at_origin(m: PolyMatrix) -> int:
    """min(rows, cols) minus the rank of the constant part at the origin."""
    rows = evaluate_matrix_at_origin(m)
    return min(m.rows, m.cols) - fraction_matrix_rank(rows)
