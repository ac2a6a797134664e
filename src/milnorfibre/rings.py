"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are immutable term maps ``exponent tuple -> coefficient``, where
a coefficient is an int when it is integral and a Fraction otherwise; never a
float.  Everything here is exact; no floating point enters at any stage.
Arithmetic results are built by a trusted constructor that skips the
validation of Polynomial(...), since their terms are valid by construction.
Sums, products and powers run on bare term maps, so the parser builds each
polynomial without intermediate Polynomial objects and makes one at the end,
in one pass over the tokens of its text.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass, field
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
    # the parser's map from each variable to its exponent tuple (_unit_exponents)
    _units: dict | None = field(default=None, init=False, compare=False, repr=False)

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
    by exponent tuples of the ring's length, and are stored as given, each
    slot set through its member descriptor."""
    p = _new(Polynomial)
    _set_ring(p, ring)
    _set_terms(p, terms)
    _set_hash(p, None)
    _set_free(p, None)
    return p


class Polynomial:
    """Immutable exact polynomial: a map from exponent tuples to nonzero
    coefficients, each an int where integral and a Fraction otherwise.
    _free is the unit-free form decomposition keeps on a generator of g,
    None until it is made."""

    __slots__ = ("ring", "_terms", "_hash", "_free")

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
        object.__setattr__(self, "_free", None)

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
        if self is other:
            return True
        if not isinstance(other, Polynomial):
            return NotImplemented
        # the ring's variables, which decide its equality, stand for it
        return self.ring.variables == other.ring.variables and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            _set_hash(self, hash((self.ring.variables, frozenset(self._terms.items()))))
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


_new = object.__new__
_set_ring, _set_terms, _set_hash, _set_free = (
    Polynomial.ring.__set__,
    Polynomial._terms.__set__,
    Polynomial._hash.__set__,
    Polynomial._free.__set__,
)


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

_TOKEN = r"[-+*^()\[\],]|[A-Za-z_][A-Za-z_0-9]*|\d+(?:/\d+)?"
# the tokens of a text and each character that no token takes, in order;
# findall skips whitespace
_SCAN_RE = re.compile(rf"{_TOKEN}|\S")
# whitespace and tokens from the start of a text; the match stops where the
# tokens do, before any trailing whitespace
_TOKENS_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*")
# the most terms a product (its term pairs) or a power (the monomials of degree
# e in as many symbols as the base has terms) in a text may expand to, and the
# largest exponent of one term; job texts stay far below it (benchmark jobs
# peak at 16, the parser fuzz at 9), and the slowest power of a sum it admits
# parses in under half a second
EXPANSION_BOUND = 256


def _tokens(text: str) -> tuple[str, ...]:
    """The tokens of text, then the sentinel '' and a ',' and a ']' past it,
    which only parse_matrix's search for an entry's end reads.  A character
    that no token takes is a token of its own, which no rule accepts."""
    return (*_SCAN_RE.findall(text), "", ",", "]")


def _error(text: str, cls, message: str, at: int) -> ParseError:
    """cls(message) at the position of token at of text, the end of text for
    the sentinel; but when some character of text is no token, the error at
    the first such character, which comes before any other."""
    rest = text[_TOKENS_RE.match(text).end():]
    if rest.strip():
        where = len(text) - len(rest.lstrip())
        return ParseError(f"unexpected character {text[where]!r}", where)
    starts = [m.start() for m in _SCAN_RE.finditer(text)]
    return cls(message, starts[at] if at < len(starts) else len(text))


def _numeral(digits: str, text: str, at: int) -> int:
    """int(digits), or a ParseError at token at past Python's int string
    limit."""
    try:
        return int(digits)
    except ValueError:
        message = f"numeral of {len(digits)} digits is over Python's int string limit"
        raise _error(text, ParseError, message, at) from None


def _count(n: int) -> str:
    """n in decimal, or past Python's int string limit as over a power of 2."""
    try:
        return str(n)
    except ValueError:
        return f"over 2^{n.bit_length() - 1}"


def _power(base: dict, toks: tuple[str, ...], at: int, text: str, one: tuple[int, ...]) -> dict:
    """base to the exponent after the '^' at token at.  A power that may
    expand past EXPANSION_BOUND terms, and a power of one term with an
    exponent above it, are refused before they are multiplied out."""
    tok = toks[at + 1]
    if not tok:
        raise _error(text, ParseError, "missing exponent after '^'", at + 1)
    if tok == "-":
        raise _error(text, ExponentError, f"negative exponent {'-' + toks[at + 2]!r}", at + 1)
    if not tok[0].isdecimal() or "/" in tok:
        message = f"exponent must be a nonnegative integer, got {tok!r}"
        raise _error(text, ExponentError, message, at + 1)
    e = _numeral(tok, text, at + 1)
    if len(base) > 1:
        terms = comb(len(base) + e - 1, e)
        if terms > EXPANSION_BOUND:
            message = f"power may expand to {_count(terms)} terms, over the bound {EXPANSION_BOUND}"
            raise _error(text, ParseError, message, at)
    elif e > EXPANSION_BOUND:
        # one term cannot add terms, but its coefficient grows with e
        raise _error(text, ParseError, f"exponent {e} is over the bound {EXPANSION_BOUND}", at)
    return _terms_pow(base, e, one)


def _unit_exponents(ring: Ring) -> dict[str, tuple[int, ...]]:
    """Each variable of ring to its exponent tuple, made at the first parse
    over the ring and kept on it."""
    units = ring._units
    if units is None:
        one = (0,) * ring.nvars
        units = {v: one[:i] + (1,) + one[i + 1:] for i, v in enumerate(ring.variables)}
        object.__setattr__(ring, "_units", units)
    return units


def _expression(
    toks: tuple[str, ...], i: int, text: str, units: dict, one: tuple[int, ...]
) -> tuple[dict, int]:
    """The term map of the expression at token i of toks, the _tokens of
    text, and the index of the first token after it, under the grammar

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* atom ('^' integer)?
        atom    := number | name | '(' expr ')'

    A factor's signs apply after its power, so -x^2 and x*-y^2 are negative.
    One loop reads a factor at a time, its signs, atom and power, and
    multiplies it into its term; a '+' or '-' after it adds the term into
    its sum, and a ')' ends the innermost parenthesis, whose sum is the atom
    of the factor that opened it.  stack holds, for each open parenthesis,
    the sum, term, sign of the term, '*' and factor sign it interrupted, and
    its own token.  The loop takes each sum, product, power and negation of
    term maps that a recursive descent over the rules takes, in the same
    order, so it builds the same maps; every map it adds into is one of its
    own.  A product that may expand past EXPANSION_BOUND terms is refused
    before it is taken, at its '*'.  The first error in the order of the
    tokens is raised, at its token."""
    stack = []
    total = term = None
    minus = False
    star = 0
    while True:
        sign = 1
        tok = toks[i]
        while tok == "-" or tok == "+":
            if tok == "-":
                sign = -sign
            i += 1
            tok = toks[i]
        if tok in units:
            base = {units[tok]: 1}
        elif tok == "(":
            stack.append((total, term, minus, star, sign, i))
            total = term = None
            minus = False
            i += 1
            continue
        elif tok[:1].isdecimal():
            if "/" in tok:
                num, _, den = tok.partition("/")
                value, den = _numeral(num, text, i), _numeral(den, text, i)
                if den == 0:
                    raise _error(text, ParseError, "zero denominator", i)
                if den != 1:
                    value = Fraction(value, den)
            else:
                value = _numeral(tok, text, i)
            base = {one: value} if value else {}
        elif not tok:
            raise _error(text, ParseError, "unexpected end of input", i)
        elif tok.isidentifier():
            raise _error(text, UnknownVariableError, f"unknown variable {tok!r}", i)
        else:
            raise _error(text, ParseError, f"unexpected token {tok!r}", i)
        i += 1
        while True:
            # the atom base ends at token i
            tok = toks[i]
            if tok == "^":
                base = _power(base, toks, i, text, one)
                i += 2
                tok = toks[i]
            if sign < 0:
                base = _terms_neg(base)
            if term is None:
                term = base
            else:
                terms = len(term) * len(base)
                if terms > EXPANSION_BOUND:
                    message = f"product may expand to {terms} terms, over the bound {EXPANSION_BOUND}"
                    raise _error(text, ParseError, message, star)
                term = _terms_mul(term, base)
            if tok == "*":
                star = i
                i += 1
                break
            if total is None:
                total = term
            else:
                _terms_add(total, _terms_neg(term) if minus else term)
            term = None
            if tok == "+" or tok == "-":
                minus = tok == "-"
                i += 1
                break
            if not stack:
                return total, i
            if tok != ")":
                raise _error(text, ParseError, "missing closing parenthesis", stack[-1][5])
            base = total
            total, term, minus, star, sign, _ = stack.pop()
            i += 1


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse '+ - * ^ ( )' expressions in the ring's variables.

    Integer and p/q rational coefficients are accepted; exponents must be
    nonnegative integers.  Errors carry the character position.
    """
    toks = _tokens(text)
    terms, i = _expression(toks, 0, text, _unit_exponents(ring), (0,) * ring.nvars)
    if toks[i]:
        raise _error(text, ParseError, f"unexpected token {toks[i]!r}", i)
    return _poly(ring, _canonical(terms))


def _close(toks: tuple[str, ...], i: int, text: str, opened: int) -> None:
    """Check that token i closes the '[' at token opened."""
    tok = toks[i]
    if not tok:
        raise _error(text, ParseError, "unbalanced '[' in matrix", opened)
    if tok != "]":
        raise _error(text, ParseError, f"unexpected token {tok!r}", i)


def parse_matrix(text: str, ring: Ring) -> PolyMatrix:
    """Parse a matrix '[[p, q], [r, s]]' of polynomials; error positions
    count from the start of text.

    A matrix is '[' row (',' row)* ']' and a row '[' entry (',' entry)* ']'.
    An entry's tokens run to the next ',' or ']', and entries of the same
    tokens are parsed once and share one Polynomial, as the 0 and 1 of an
    identity block and the mirrored entries of a symmetric H written alike
    do: an entry is kept only when its parse ends at that ',' or ']', so a
    later entry of the same tokens parses to the same map and ends there
    too.
    """
    toks = _tokens(text)
    units, one = _unit_exponents(ring), (0,) * ring.nvars
    parsed: dict[str | tuple[str, ...], Polynomial] = {}
    if toks[0] != "[":
        raise _error(text, ParseError, f"expected '[', got {toks[0]!r}", 0)
    rows = []
    i = 1
    while True:
        opened = i
        if toks[i] != "[":
            raise _error(text, ParseError, f"expected '[', got {toks[i]!r}", i)
        i += 1
        row = []
        while True:
            end = i + 1
            if toks[end] == "," or toks[end] == "]":
                key = toks[i]
            else:
                end = min(toks.index(",", end), toks.index("]", end))
                key = toks[i:end]
            entry = parsed.get(key)
            if entry is None:
                terms, i = _expression(toks, i, text, units, one)
                entry = _poly(ring, _canonical(terms))
                if i == end:
                    parsed[key] = entry
            else:
                i = end
            row.append(entry)
            if toks[i] != ",":
                break
            i += 1
        _close(toks, i, text, opened)
        rows.append(tuple(row))
        i += 1
        if toks[i] != ",":
            break
        i += 1
    _close(toks, i, text, 0)
    if toks[i + 1]:
        raise _error(text, ParseError, f"unexpected token {toks[i + 1]!r}", i + 1)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("ragged matrix rows")
    return _matrix(ring, tuple(rows))


# --- matrices ---------------------------------------------------------------

class PolyMatrix:
    """Immutable rectangular matrix of polynomials over one ring.  _free is
    the unit-free form decomposition keeps on an H, None until it is made."""

    __slots__ = ("ring", "rows", "cols", "_entries", "_hash", "_free")

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
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_free", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def entry(self, i: int, j: int) -> Polynomial:
        return self._entries[i][j]

    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        return self._entries

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring.variables == other.ring.variables and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring.variables, self._entries)))
        return self._hash

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


_set_matrix = tuple(
    getattr(PolyMatrix, slot).__set__
    for slot in ("ring", "rows", "cols", "_entries", "_hash", "_free")
)


def _matrix(ring: Ring, entries: tuple[tuple[Polynomial, ...], ...]) -> PolyMatrix:
    """Trusted constructor: entries must be a nonempty tuple of rows, each a
    tuple of as many polynomials over ring, at least one; it is stored as
    given, with no entry checked."""
    m = _new(PolyMatrix)
    set_ring, set_rows, set_cols, set_entries, set_hash, set_free = _set_matrix
    set_ring(m, ring)
    set_rows(m, len(entries))
    set_cols(m, len(entries[0]))
    set_entries(m, entries)
    set_hash(m, None)
    set_free(m, None)
    return m


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
