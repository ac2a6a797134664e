"""Invariants of a hypersurface germ presented as f = g * H * g^t.

The germ is singular along the 3-dimensional locus cut out by g (n-3
functions in n variables); H is a symmetric (n-3) x (n-3) polynomial matrix.
From this presentation the module computes the four numbers the homology
tables consume: mu0 (Milnor number of the locus), mu1 (Milnor number of the
locus intersected with det H = 0), a (colength of the corank-2 determinantal
scheme) and the corank of H at the origin, plus the Morse-point count #A1
under one of three modes.

mu0, mu1 and a belong to germs that lie in V(g).  So a job substitutes the
linear generators l of g away once, each pivot variable of their reduced
row-echelon form replaced by a form in the free variables, and runs the
checks, the mu0 chain, the mu1 step and the colength of a on the restricted
germ, in n - rank(l) variables: O_n/(l) is O_(n - rank(l)), and the Milnor
number of an i.c.i.s. depends only on the germ (Looijenga, Isolated
Singular Points on Complete Intersections, LMS LN 77).  The corank of H is
read at the origin, which the substitution fixes.  _restrict proves that
the checks report what they report in all n variables.

So the steps that read neither the seed nor anything of the input beyond
its restriction (the locus check, the corank of H(0), the (g, det H)
check, a and the top colength of the mu1 step) are a function of the
restricted germ and the budgets, as invariant_report proves, and a process
runs them once for each such pair it meets (_restricted_stage).  The
germ is keyed with its constant factors removed, on H and on each other
generator (_unit_free), and under the sign flips x_i -> -x_i that its
restricted H decides (_sign_flips), so the presentations whose linear
generators span one space, and whose other generators and H agree modulo
it up to such factors and flips, share them.

The #A1 estimate is 0 or an error: it checks that the critical locus of f
near 0 is V(g) (a1_count).  When g is linear and H is constant along a
complement of V(g), as on every germ the paper writes down and every linear
image of one, it is decided on the fibre over the origin, read off one pass
over the terms of H: H(0), the matrices d_iH(0) and the class test's rows.
Restricted to ker H(0), the fibre is a question about at most two binary
quadrics when the corank of H(0) is at most 2, settled in closed form by
their span and Sylvester's resultant, and one colength in corank-many
variables otherwise (_fibre_finite).  f is neither assembled nor
differentiated there; it is assembled to check an explicit f, and for the
other germs, whose Jacobian ideal of f is saturated by (g) in all n
variables.  The verdict, finite, infinite or outside the class, is a
function of the span of g's linear generators and the unit-free H, so it is
kept with the restricted H of that pair (_restricted_h) once an estimate
job has decided it in closed form, and every presentation that shares the
pair reads it; a verdict that takes a colength, at corank 3 or more, is
decided for each job.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from math import gcd, lcm
from operator import add, attrgetter, mul
from typing import NamedTuple, Sequence

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .homology import rank_guards
from .milnor import IcisCheck, check_icis, milnor_icis, milnor_top_step, top_colength
from .orders import local_order
from .rings import (
    PolyMatrix,
    Polynomial,
    Ring,
    _canonical,
    _matrix,
    _poly,
    _terms_add,
    _terms_mul,
    corank_at_origin,
    determinant_and_minors,
    reduced_row_echelon,
)
from .standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _linear_substitution,
    colength,
    saturate,
)

A1_MODES = ("provided", "assume_zero", "estimate")


@dataclass(frozen=True)
class SingularityInput:
    """A germ in the shape f = g * H * g^t.

    g has exactly n-3 entries, H is symmetric of size n-3; f_expected, when
    given, is cross-checked against the assembled product.  a1_mode governs
    where the Morse-point count comes from.  _outcomes holds the seed-free
    outcomes of invariant_report on this input, keyed by the budgets.
    """

    ring: Ring
    g: tuple[Polynomial, ...]
    h: PolyMatrix
    f_expected: Polynomial | None = None
    a1_mode: str = "assume_zero"
    a1_count: int | None = None
    _outcomes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.ring.nvars
        if n < 4:
            raise ValueError(f"need at least 4 variables, got {n}")
        if len(self.g) != n - 3:
            raise ValueError(
                f"g must have n-3 = {n - 3} entries, got {len(self.g)}"
            )
        for p in self.g:
            if p.ring != self.ring:
                raise ValueError("g entry over a different ring")
        if self.h.ring != self.ring:
            raise ValueError("H over a different ring")
        if self.h.rows != n - 3 or self.h.cols != n - 3:
            raise ValueError(
                f"H must be {n - 3}x{n - 3}, got {self.h.rows}x{self.h.cols}"
            )
        if not self.h.is_symmetric():
            raise ValueError("H must be symmetric")
        if self.f_expected is not None and self.f_expected.ring != self.ring:
            raise ValueError("f_expected over a different ring")
        if self.a1_mode not in A1_MODES:
            raise ValueError(f"a1_mode must be one of {A1_MODES}")
        # the report writes the count in place, so a bool or a float would
        # give invalid JSON or a broken bouquet
        if self.a1_count is not None and type(self.a1_count) is not int:
            raise ValueError(f"a1_count must be an int, got {type(self.a1_count).__name__}")
        if self.a1_mode == "provided" and (
            self.a1_count is None or self.a1_count < 0
        ):
            raise ValueError("a1_mode 'provided' needs a non-negative a1_count")

    @property
    def n(self) -> int:
        return self.ring.nvars


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    """The numeric invariants plus the checks that vouch for them."""

    n: int
    mu0: int
    mu1: int
    mu1_applicable: bool
    a: int
    corank: int
    a1: int
    a1_provenance: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)


class _RestrictedGerm(NamedTuple):
    """The germ with the linear generators of g substituted away: ring is
    the ring of their free variables, g holds the unit-free images of the
    other generators, then a zero for each linear generator past the rank
    of the linear ones, so it has n - 3 entries for the n variables of
    ring, as an input does, and h is the unit-free image of H, of the same
    size as H; h and g are taken under the sign flips of H's
    _restricted_h entry."""

    ring: Ring
    g: tuple[Polynomial, ...]
    h: PolyMatrix

    @property
    def n(self) -> int:
        return self.ring.nvars


def _restrict(inp: SingularityInput) -> tuple[_RestrictedGerm, tuple[Polynomial, ...], _RestrictedH]:
    """inp restricted to the free variables of its linear generators l, by
    the substitution phi that colength applies to an ideal
    (_linear_substitution), with its constant factors removed (_unit_free)
    and under the sign flips sigma of its _restricted_h entry, the
    restricted g of inp under sigma, and that entry, whose h the germ
    holds.  phi keeps degrees, so constant terms and the corank of H stay.

    The checks give the same outcome on the restriction.  Let I be the
    ideal of g and the maximal minors of its Jacobian J = [A; dh], with A
    the rows of l, and suppose A has full rank r.  A linear change of
    coordinates multiplies J on the right by an invertible constant matrix,
    and row operations on A multiply it on the left, so by Cauchy-Binet
    neither changes the ideal of the maximal minors.  In the coordinates
    u_p = x_p - r_p and the free variables z, A is [1 0]: a maximal minor is
    zero unless it takes every u column, and then it is a (k - r)-minor of
    dh/dz, which modulo (l) = (u) is the Jacobian of phi(h).  So
    I = (l) + I', for I' the restricted check's ideal in the free variables,
    and the two colengths are equal.  By the lemma of _local_staircase,
    L(I) = (x_p) + L(I'), so the unbounded variables an INFINITE check names
    are the same as well: the pivot set of the whole linear row space is
    the union of the restriction's pivots and those colength finds in I'.
    A linear generator past the rank of l makes every maximal minor of J
    vanish, and a generator in (l) makes every one vanish modulo (l); on
    the restriction either is a zero generator, whose zero row leaves no
    nonzero maximal minor.  A nonzero det H in (l) is such a generator of
    the (g, det H) check.

    The substitution of g is kept for the tuple of its unit-free generators
    (_substitution), and the image of H for its _Span and unit-free H
    (_restricted_h), so the g whose linear generators span one space, as
    rescaled, negated or recombined ones do, share one restricted H and
    ring, and so do the H that differ by a constant factor.  The image of H
    depends on the span alone: phi is read off the reduced row-echelon rows
    of the linear generators' coefficients, and those rows are the one basis
    of their row space with a 1 in each pivot column and 0 in the other
    rows' pivot columns, so the pivots, the free variables, the forms r_p
    and hence phi are functions of the span.  Both keys give what g and H
    as written give.  A nonzero factor on a generator changes neither
    whether it is linear nor the row space of the linear ones, so neither
    the _Span nor the count past its rank.  phi is Q-linear, so
    phi(cH) = c * phi(H) entrywise, and _unit_free gives the same maps for
    any nonzero multiple of its maps, with the sign fixed at the same first
    nonzero entry; so the restricted H is the same for H and cH.  The
    unit-free forms of g's generators and of H are made once for each
    object and kept on it (_unit_free_generator, _unit_free_matrix), so a
    parsed field met again pays a slot read.  The images of g's other
    generators are made, flipped by sigma and made unit-free for each job,
    so the germ is the sigma-image of the job's own restriction."""
    linear, dependent, span = _substitution(tuple(map(_unit_free_generator, inp.g)))
    restricted = _restricted_h(span, _unit_free_matrix(inp.h))
    h, flips = restricted.h, restricted.flips
    ring, phi = h.ring, span.phi
    zero = ring.zero()
    g = tuple(
        _poly(ring, _flipped(terms, flips) if flips else terms) if q and (terms := phi(q)) else zero
        for q, lin in zip(inp.g, linear)
        if not lin
    )
    pad = (zero,) * dependent
    return _RestrictedGerm(ring, tuple(map(_unit_free_generator, g)) + pad, h), g + pad, restricted


# What an object's _free slot holds when its unit-free form is the object
# itself: a reference to itself would be a cycle that only the GC frees.
_SAME = object()


def _unit_free_generator(q: Polynomial) -> Polynomial:
    """q made unit-free (_unit_free); q itself when it is zero or already
    is.  The form is made once and kept on q."""
    free = q._free
    if free is None:
        free = _SAME
        if q:
            (made,) = _unit_free([q._terms])
            if made is not q._terms:
                free = _poly(q.ring, made)
        object.__setattr__(q, "_free", free)
    return q if free is _SAME else free


def _unit_free_matrix(h: PolyMatrix) -> PolyMatrix:
    """h made unit-free (_unit_free_image); h itself when it is zero or
    already is.  The form is made once and kept on h."""
    free = h._free
    if free is None:
        made = _unit_free_image(h, h.ring, attrgetter("_terms"))
        free = _SAME if made is h else made
        object.__setattr__(h, "_free", free)
    return h if free is _SAME else free


def _unit_free_image(h: PolyMatrix, ring: Ring, image) -> PolyMatrix:
    """The matrix over ring of the term maps image(q) of the entries q of
    h, made unit-free as one list of its nonzero entries in row-major order
    (_unit_free); h itself when that gives over h's ring the term maps of
    h's own entries.  Each distinct entry object of h is mapped once, and
    the entries it stands at share the image, as the parsed H's repeated
    entries share their polynomial, so the first object with a nonzero
    image stands at the first nonzero entry."""
    entries = h._entries
    images = {id(q): q for row in entries for q in row}
    maps = {key: terms for key, q in images.items() if q and (terms := image(q))}
    values = list(maps.values())
    free = _unit_free(values) if values else values
    if free is values and ring is h.ring and all(t is images[key]._terms for key, t in maps.items()):
        return h
    made = {key: _poly(ring, terms) for key, terms in zip(maps, free)}
    zero = ring.zero()
    return _matrix(ring, tuple(tuple([made.get(id(q), zero) for q in row]) for row in entries))


def _unit_free(maps: list[dict]) -> list[dict]:
    """The nonzero term maps divided by the content c of all their
    coefficients, the rational with every coefficient over c an integer and
    the gcd of those integers 1, taken negative when the first map's
    coefficient at its greatest exponent is.  So maps and any nonzero
    rational multiple of them give equal results; maps itself when c is 1."""
    values = [c for t in maps for c in t.values()]
    try:
        m, d = 1, gcd(*values)
    except TypeError:
        # a Fraction among the coefficients
        m = lcm(*(c.denominator for c in values))
        d = gcd(*(c.numerator * (m // c.denominator) for c in values))
    first = maps[0]
    if first[max(first)] < 0:
        d = -d
    if m == 1:
        if d == 1:
            return maps
        if d == -1:
            return [{e: -c for e, c in t.items()} for t in maps]
    return [{e: c.numerator * (m // c.denominator) // d for e, c in t.items()} for t in maps]


class _Span:
    """The span of linear generators in the ring of variables, keyed by the
    reduced row-echelon rows of their coefficients, which alone decide
    equality; phi substitutes it away into ring, the ring of its free
    variables (_linear_substitution).  A plain class, as making a
    dataclass would slow the package's import."""

    __slots__ = ("key", "phi", "ring")

    def __init__(self, variables: tuple[str, ...], rows: tuple[tuple, ...], phi, ring: Ring):
        self.key = (variables, rows)
        self.phi = phi
        self.ring = ring

    def __eq__(self, other) -> bool:
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


# Over 32 passes at seed 5 no workload meets more than 16 tuples of
# unit-free g, so an LRU of 64 misses each once: it hits 1008 of batch-n5's
# 1024 look-ups, 409 of heavy-local's 416 and 820 of a1-saturation's 832.
_SUBSTITUTIONS = 64


@functools.lru_cache(maxsize=_SUBSTITUTIONS)
def _substitution(g: tuple[Polynomial, ...]) -> tuple[tuple[bool, ...], int, _Span]:
    """Which generators of g, each unit-free, are linear, how many of those
    lie past their rank, and their _Span."""
    linear = tuple(all(sum(e) == 1 for e, _ in q.items()) for q in g)
    variables = g[0].ring.variables
    free, phi, rows = _linear_substitution([q for q, lin in zip(g, linear) if lin], len(variables))
    ring = Ring(tuple(variables[j] for j in free))
    return linear, sum(linear) - len(rows), _Span(variables, rows, phi, ring)


# What a _RestrictedH's fibre slot holds until a verdict is kept there.
_UNDECIDED = object()


class _RestrictedH:
    """The restricted H of a (_Span, unit-free H) pair under its sign flips,
    the flipped variables' indices (_sign_flips), and in fibre the #A1
    fibre verdict of its germs (_fibre_finite), True, False or None, once
    an a = estimate job has decided it in closed form; _UNDECIDED before.
    A plain class, as _Span."""

    __slots__ = ("h", "flips", "fibre")

    def __init__(self, h: PolyMatrix):
        self.h, self.flips = _sign_flips(h)
        self.fibre = _UNDECIDED


def _sign_flips(h: PolyMatrix) -> tuple[PolyMatrix, tuple[int, ...]]:
    """h, a unit-free H, under the sign flips s of its variables and of H
    itself that make positive, in turn, each term whose parity vector
    v = (e mod 2, 1) is independent over GF(2) of those taken before it,
    and the flipped variables' indices: s sends c * x^e to
    (-1)^(s . v) * c * x^e.  The walk, over the upper triangle row by row
    and each entry's terms by descending exponent, starts at the term
    whose sign _unit_free fixes, so the flipped H is unit-free.  It reads
    exponents only, which flips fix, so two sign images of h have the same
    terms made positive; their vectors span every v, so the two flipped H
    are one."""
    k = h.ring.nvars
    taken: list[tuple[int, int, bool]] = []
    entries = h._entries
    for i, row in enumerate(entries):
        for q in row[i:]:
            for e in sorted(q._terms, reverse=True):
                v = sum((x & 1) << j for j, x in enumerate(e)) | 1 << k
                odd = q._terms[e] < 0
                # each vector taken is zero at the earlier ones' pivots
                for pivot, w, c in taken:
                    if v & pivot:
                        v ^= w
                        odd ^= c
                if v:
                    taken.append((v & -v, v, odd))
    # a vector taken later is zero at every earlier pivot, so solving from
    # the last one back sets each pivot once
    s = 0
    for pivot, w, c in reversed(taken):
        if (s & w).bit_count() & 1 != c:
            s |= pivot
    if not s:
        return h, ()
    flips = tuple(j for j in range(k) if s >> j & 1)
    negate = bool(s >> k)
    made = {id(q): _poly(h.ring, _flipped(q._terms, flips, negate)) for row in entries for q in row}
    return _matrix(h.ring, tuple(tuple(made[id(q)] for q in row) for row in entries)), flips


def _flipped(terms: dict, flips: tuple[int, ...], negate: bool = False) -> dict:
    """terms under x_i -> -x_i for each i in flips, negated when negate."""
    return {e: -c if (sum(map(e.__getitem__, flips)) + negate) & 1 else c for e, c in terms.items()}


# Over 32 passes at seed 5 no workload meets more than 108 (span,
# unit-free H) pairs, at about 0.8 kB each, so an LRU of 128 misses each
# once: it hits 926 of batch-n5's 1024 look-ups, 345 of heavy-local's 416
# and 724 of a1-saturation's 832.  Only a1-saturation asks for #A1 fibre
# verdicts: it decides one for each of its 108 entries and reads the 724
# others from the entries.
_RESTRICTED_HS = 128


@functools.lru_cache(maxsize=_RESTRICTED_HS)
def _restricted_h(span: _Span, h: PolyMatrix) -> _RestrictedH:
    """The entry of the image of h, a unit-free H (_unit_free_matrix),
    under span's phi, over span's ring, made unit-free (_unit_free_image)
    and flipped (_sign_flips), with the flips, which _restrict applies to
    the rest of g; both are functions of the key.  Its fibre slot starts
    undecided; the first a = estimate job of the pair whose verdict
    _fibre_finite reaches in closed form keeps it there, and every later
    one reads it (a1_count).

    That verdict is a function of the pair, for every input whose g and H
    give it.  Let k = n - 3 and A be the coefficient rows of g.
    - If span has rank k, every generator of g is linear and A's rows span
      it.  The class test asks that each row of A be independent of S and
      of the rows of A before it.  That holds exactly when
      row(A) ∩ row(S) = 0 and rank A = k, and both read only the row
      space, which _Span holds in the ring's variable order.
    - If span has rank below k, some generator of g is not linear or lies
      in the span of the linear ones, so the germ is outside the class: the
      verdict is None, or for H = 0 the zero Jacobian error, which the
      saturation that a kept None leads to raises with the same text.
    - H -> cH with c != 0 scales S, H(0) and every form by c.  So ker H(0),
      the rank tests and any(q) stay the same, and so does the corank-2
      resultant test, which is homogeneous in the normal.  H = 0 exactly
      when cH = 0.
    - Two equal H may list their terms in different orders.  That reorders
      S and the forms, but neither the class test nor the closed forms for
      corank <= 2 depend on the order.
    A corank >= 3 verdict is not kept: it runs colength under the job's
    budgets on the quadrics in the forms' order, so it can trip differently
    for an equal H written in another order, and it is decided for each
    job.  Nor is the H = 0 error, which is raised afresh."""
    return _RestrictedH(_unit_free_image(h, span.ring, span.phi))


def assemble_f(inp: SingularityInput) -> Polynomial:
    """Expand the matrix product g * H * g^t, as the sum of h_ii * g_i^2
    and 2 * h_ij * g_i * g_j for i < j over the nonzero entries of the
    symmetric H, on bare term maps."""
    total: dict = {}
    g, entries = inp.g, inp.h.entries()
    for i, row in enumerate(entries):
        for j in range(i, len(row)):
            h = row[j]
            if h:
                if i != j:
                    h = {e: 2 * c for e, c in h.items()}
                _terms_add(total, _terms_mul(_terms_mul(g[i], g[j]), h))
    return _poly(inp.ring, _canonical(total))


def verify_decomposition(inp: SingularityInput) -> Polynomial:
    """Assemble f and cross-check against f_expected when present."""
    f = assemble_f(inp)
    if inp.f_expected is not None and f != inp.f_expected:
        raise InconsistencyError(
            "assembled g*H*g^t does not equal the expected f: got "
            f"{f} expected {inp.f_expected}"
        )
    return f


def compute_a(
    germ: SingularityInput | _RestrictedGerm,
    h_minors: Sequence[Polynomial],
    budgets: Budgets = DEFAULT_BUDGETS,
) -> int:
    """Colength of the corank >= 2 determinantal scheme on the locus:
    (g) + h_minors, the nonzero minors of H of size n-4 (as
    determinant_and_minors gives them), over the germ's ring.  Scalar H
    (n = 4) has the one 0 x 0 minor, 1, so the unit rule gives 0."""
    gens = list(germ.g) + list(h_minors)
    value = colength(gens, local_order(germ.n), budgets)
    if value == INFINITE:
        raise ComputationError("corank-2 locus not isolated at origin")
    return int(value)


def _fibre_finite(
    inp: SingularityInput, budgets: Budgets, restricted: _RestrictedH | None = None
) -> bool | None:
    """Whether the fibre ideal of inp over the origin is 0-dimensional, read
    off the coefficients of H; None when inp is outside the class the fibre
    decides.  The fibre ideal, in k = n - 3 variables w, is generated by the
    forms H(0) w and w^t * D_l * w, for D_l = d_lH(0), l = 1..n.

    The class: every generator of g is linear, and every entry of H is
    constant along some k-dimensional subspace T with T ∩ V(g) = 0.  The
    directions v along which H is constant, d_v H_ij = 0 for all i <= j,
    form the kernel L of the linear system S whose rows are the
    coefficients of the monomials of the partials d_l H_ij.  T exists
    exactly when the coefficient rows A of g have rank k on L: a
    k-dimensional T in L on which A has rank k meets ker A = V(g) in 0, and
    conversely A is injective on such a T.  A has rank k on L = ker S
    exactly when the row spaces of A and S meet in 0 and A has rank k, that
    is when each row of A is independent of the rows of S and of the rows
    of A before it.

    Exactness.  Q^n is the direct sum of T and V(g), so take coordinates
    (x', y) with y = g(z) and x' linear coordinates on V(g), read through
    the projection along T.  H is constant along T, so f = y^t * H(x') * y
    and J(f) = (2 H(x') y, y^t * d_j H(x') y), generated by forms in y: over
    every x' the critical locus V(J) is a cone in y.  So V(J) meets the
    complement of V(g) = {y = 0} arbitrarily near 0 exactly when some
    y != 0 lies in V(J) over x' = 0.  Such a y scaled down to 0 stays in
    V(J).  Conversely, take critical points (x'_m, y_m) -> 0 with y_m != 0.
    The equations are homogeneous in y, so they hold at (x'_m, y_m / |y_m|),
    and P^(k-1) is compact, so these unit vectors have a limit point w; by
    continuity H(0) w = 0 and w^t * d_j H(0) w = 0.  Over x' = 0
    these are the fibre ideal's equations: the partials d_i in the original
    coordinates span the same matrices d_v H(0) as those in (x', y), since
    d_v H = 0 for v in T.  The fibre ideal is homogeneous, so it is
    0-dimensional exactly when w = 0 is its only zero, that is when V(J)
    lies in V(g) near 0, which by the Nullstellensatz in the local ring
    makes J : (g)^infinity the whole ring.  With a1_count's lemma, the
    fibre ideal is 0-dimensional exactly when the saturation's colength is
    0, and it is not exactly when the saturation's colength is infinite.
    f is never assembled here, so its zero Jacobian ideal is read off H.
    H = 0 makes f = 0 whatever g is, and raises that error before the class
    test.  Conversely, in the coordinates above a quadratic form
    y^t * H(x') * y vanishes for every y only when the symmetric H(x') is
    zero, so no other germ of the class has f = 0.

    Closed form.  H(0) has rational entries, so its kernel over C is
    spanned by a basis kappa_1..kappa_c of K = ker H(0) over Q, c the
    corank.  With w = sum t_s kappa_s, the fibre ideal's zeros are the
    common zeros in C^c of the restricted quadrics q_l(t) = w^t * D_l * w,
    and these form a cone, which is 0 exactly when the fibre ideal is
    0-dimensional.
    - c = 0: the only zero is 0.
    - c = 1: q_l = lambda_l * t^2, and 0 is the only zero exactly when some
      lambda_l is nonzero.
    - c = 2: pair a binary quadric q = a u^2 + b uv + c v^2 with
      m = (u^2, uv, v^2) as (a, b, c) . m; then (u, v) != 0 is a common
      zero exactly when m lies in the annihilator V' in C^3 of the span V
      of the q_l.  The m of that shape with (u, v) != 0 are the nonzero
      points of the cone m_1 m_3 = m_2^2: u and v are square roots of m_1
      and m_3 with uv = m_2.  If dim V = 3, V' = 0 and 0 is the only zero.
      If dim V <= 1, V' contains a plane, on which the cone's equation is a
      binary quadratic form over C, and that has a nonzero zero.  If
      dim V = 2, V' is the line of x = q_1 x q_2 for a basis pair, and it
      lies on the cone exactly when x_2^2 = x_1 x_3.  x_2^2 - x_1 x_3 =
      (a_1 c_2 - a_2 c_1)^2 - (a_1 b_2 - a_2 b_1)(b_1 c_2 - b_2 c_1) is
      Sylvester's resultant of q_1 and q_2 (Cox, Little and O'Shea, Ideals,
      Varieties, and Algorithms, ch. 3 section 6).
    - c >= 3: one colength of the restricted quadrics in c variables,
      which is finite exactly when 0 is their only zero, as they are
      homogeneous; a zero ideal, which colength refuses, has every t as a
      zero.

    A verdict reached in closed form is kept in the fibre slot of
    restricted, inp's _restricted_h entry, when it is given."""
    finite = _fibre_closed_form(inp)
    if type(finite) is list:
        return colength(finite, local_order(finite[0].ring.nvars), budgets) != INFINITE
    if restricted is not None:
        restricted.fibre = finite
    return finite


def _fibre_closed_form(inp: SingularityInput) -> bool | None | list[Polynomial]:
    """_fibre_finite's verdict where the terms of H settle it, and at
    corank >= 3 the restricted quadrics, in corank variables, whose
    colength settles it."""
    n, k = inp.n, len(inp.g)
    a = []
    for q in inp.g:
        row = [0] * n
        for e, c in q.items():
            if sum(e) != 1:
                return None
            row[e.index(1)] = c
        a.append(row)
    # one pass over the terms of H: its value at 0, the doubled coefficients
    # of the forms w^t * D_l * w on w_i * w_j, i <= j, and one row of S per
    # entry of H and monomial of its partials
    h0 = [[0] * k for _ in range(k)]
    forms: dict[int, dict] = {}
    system: dict[tuple, list] = {}
    for i in range(k):
        for j in range(i, k):
            for e, c in inp.h.entry(i, j).items():
                degree = sum(e)
                if degree == 0:
                    h0[i][j] = h0[j][i] = c
                    continue
                if degree == 1:
                    forms.setdefault(e.index(1), {})[i, j] = c if i == j else 2 * c
                for l, el in enumerate(e):
                    if el:
                        key = (i, j) + e[:l] + (el - 1,) + e[l + 1:]
                        system.setdefault(key, [0] * n)[l] += el * c
    if not system and not any(map(any, h0)):
        raise ComputationError("zero Jacobian ideal; f is identically zero")
    # forward elimination, one row at a time: each kept row is zero in the
    # pivot columns of the rows kept before it, so a row reduced by all of
    # them in turn is zero in every pivot column, and nonzero exactly when
    # it is independent of them
    echelon: list[tuple[int, list]] = []

    def independent(row: list) -> bool:
        for p, kept in echelon:
            if row[p]:
                row = [kept[p] * x - row[p] * y for x, y in zip(row, kept)]
        for p, x in enumerate(row):
            if x:
                echelon.append((p, row))
                return True
        return False

    for row in system.values():
        independent(row)
    if not all(map(independent, a)):
        return None
    reduced, pivots = reduced_row_echelon(h0)
    if len(pivots) == k:
        return True
    # K has one basis vector per free column c: e_c minus (row p)[c] * e_p
    # over the pivots p
    kernel = []
    for col in range(k):
        if col not in pivots:
            v = [0] * k
            v[col] = 1
            for p, r in zip(pivots, reduced):
                v[p] = -r[col]
            kernel.append(v)
    corank = len(kernel)
    # each restricted quadric as its coefficients on t_s * t_t, s <= t, in
    # lexicographic order of (s, t): for corank 2 that is (a, b, c)
    pairs = [(s, t) for s in range(corank) for t in range(s, corank)]
    quadrics = []
    for form in forms.values():
        q = []
        for s, t in pairs:
            u, v = kernel[s], kernel[t]
            if s == t:
                q.append(sum(x * u[i] * u[j] for (i, j), x in form.items()))
            else:
                q.append(sum(x * (u[i] * v[j] + v[i] * u[j]) for (i, j), x in form.items()))
        if any(q):
            quadrics.append(q)
    if corank == 1 or not quadrics:
        return bool(quadrics)
    if corank == 2:
        # the normal q1 x q2 of the span of the first independent pair
        q1 = quadrics[0]
        for q2 in quadrics[1:]:
            normal = (
                q1[1] * q2[2] - q1[2] * q2[1],
                q1[2] * q2[0] - q1[0] * q2[2],
                q1[0] * q2[1] - q1[1] * q2[0],
            )
            if any(normal):
                break
        else:
            return False
        if any(sum(map(mul, normal, q)) for q in quadrics):
            return True
        return normal[1] * normal[1] != normal[0] * normal[2]
    ring = Ring(tuple(f"t{s}" for s in range(1, corank + 1)))
    units = [tuple(int(s == r) for r in range(corank)) for s in range(corank)]
    monomials = [tuple(map(add, units[s], units[t])) for s, t in pairs]
    return [Polynomial(ring, dict(zip(monomials, q))) for q in quadrics]


def a1_count(
    inp: SingularityInput,
    budgets: Budgets = DEFAULT_BUDGETS,
    *,
    restricted: _RestrictedH | None = None,
) -> tuple[int, str]:
    """Morse-point count with provenance.

    provided -> the user's number; assume_zero -> 0 flagged as assumed;
    estimate -> the colength of J : (g)^infinity, for J the Jacobian ideal
    of f, in the local ring R = Q[x]_(x), flagged experimental (downstream
    ranks are conditional on it).

    That colength is 0 or infinite, and an infinite one raises: the
    estimate checks that the critical locus of f near 0 is V(g), and counts
    no Morse point of a deformation.  Proof: write J as an intersection of
    primary ideals Q_i of R with primes P_i.  Then J : (g)^infinity is the
    intersection of the Q_i with (g) not in P_i.  Such a P_i lies in the
    maximal ideal m, and is not m, since (g) lies in m; so R/P_i has
    dimension at least 1.  Hence the saturation is R, of colength 0, or
    has infinite colength.

    On a germ in the class of _fibre_finite the outcome is read off the
    fibre over the origin, from the coefficients of H at 0: in closed form
    when H(0) has corank at most 2, and by one colength in corank-many
    variables otherwise.  Every other germ has f = g * H * g^t assembled and
    its Jacobian ideal saturated, by one elimination in n + 1 exponent slots.

    restricted, which invariant_report passes, is inp's _restricted_h
    entry, from the restriction the job already made.  The fibre verdict
    kept there is read and not decided again, since it is a function of
    the entry's key (_restricted_h proves it); an undecided one is decided
    and, when reached in closed form, kept.  Only the estimate reads the
    entry, so the other modes never decide a verdict.
    """
    if inp.a1_mode == "provided":
        return inp.a1_count, "provided"
    if inp.a1_mode == "assume_zero":
        return 0, "assumed"
    finite = _UNDECIDED if restricted is None else restricted.fibre
    if finite is _UNDECIDED:
        finite = _fibre_finite(inp, budgets, restricted)
    if finite is not None:
        value = 0 if finite else INFINITE
    else:
        f = assemble_f(inp)
        jac = [d for d in map(f.derivative, range(inp.n)) if not d.is_zero()]
        if not jac:
            raise ComputationError("zero Jacobian ideal; f is identically zero")
        order = local_order(inp.n)
        sat, _eliminations = saturate(jac, list(inp.g), order, budgets)
        live = [p for p in sat if not p.is_zero()]
        if not live:
            raise ComputationError("saturation of the Jacobian ideal is zero")
        # saturate returns a standard basis, so colength needs no new one
        value = colength(live, order, budgets, basis=live)
    if value == INFINITE:
        raise ComputationError(
            "saturated Jacobian ideal is not 0-dimensional; "
            "cannot estimate the Morse-point count"
        )
    return int(value), "experimental-saturation"


# f lies in I^2 by construction: it is the assembled sum of g_i * H_ij * g_j,
# and verify_decomposition rejects an explicit f that differs from it.  So f
# lies in m^2 once every g_i vanishes at 0, and check_icis raises before any
# report exists when one does not.  Neither check can fail, so none is run.
_LOCUS_MEMBERSHIP_CHECKS = (
    CheckResult("vanishing_1jet", True, "f and all partials vanish at 0"),
    CheckResult("f_in_I_squared", True, "f lies in I^2"),
)


def _guard_inequalities(mu1: int, a: int, corank: int) -> tuple[CheckResult, ...]:
    if corank < 2:
        return ()
    return tuple(
        CheckResult(name, value >= 0, f"value {value}")
        for name, value in rank_guards(mu1, a)
    )


def invariant_report(
    inp: SingularityInput,
    seed: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> InvariantReport:
    """Full invariant computation with all checks.

    Raises InconsistencyError when a rank guard fails, ComputationError or
    InvalidIcisError when the geometry is out of scope.

    The seed is read once, by milnor_icis(locus, seed, budgets), which runs
    only when the restriction leaves a generator of g (`if locus`).  Every
    other step is a deterministic function of the input and the budgets,
    and each engine call counts its budget from zero.  So an outcome reached
    without milnor_icis, the report or a ComputationError or
    InconsistencyError, is a function of (inp, budgets): it is kept on the
    input, keyed by the budgets, and a later call with the same budgets
    returns the same report, or raises a fresh error of the same type and
    text, spending no budget.  An outcome that read the seed is recomputed
    on every call.

    Below that, the steps that read only the restricted germ are kept for
    (germ, budgets), the germ unit-free (_restricted_stage): the locus
    check, the corank, the (g, det H) check with a, and the top colength of
    mu1, or the error one of them raised.  Each is a function of (germ,
    budgets): check_icis, compute_a and top_colength read only the
    generators they are given and the budgets, determinant_and_minors only
    the restricted H, and the corank of H(0) is that of the restricted
    H(0), since the substitution sends a form of degree d to one of degree
    d and so fixes every constant term; their error texts name only
    variables of the restricted ring, whose names are part of the key.  A
    job whose germ an earlier job of the process restricted to, up to
    constant factors and sign flips and under the same budgets, runs only
    the steps that read its own input or the seed: the cross-check of f,
    the zero-generator check, the det H fallback in all n variables when
    the restricted det H is zero, milnor_icis on the kept locus check with
    the job's own generators under its flips, mu1 = top - mu0 (whose
    errors name mu0), the #A1 count and the rank guards.  A kept error is
    raised where the job's own computation raises it: a locus failure
    before the det H fallback, a failure of the (g, det H) check or of a
    after it, and a top colength failure after mu0.  When g restricts to no generator,
    the report itself is kept on the stage by (#A1, provenance) and
    returned after the input's own steps, so every presentation of the
    germ shares one report, with the parts and JSON run_homology keeps on
    it.
    """
    outcomes = inp._outcomes
    outcome = outcomes.get(budgets)
    if outcome is None:
        seed_read = False

        def mu0_of(locus):
            nonlocal seed_read
            seed_read = True
            return milnor_icis(locus, seed, budgets)

        try:
            outcome = _invariant_report(inp, mu0_of, budgets)
        except (ComputationError, InconsistencyError) as exc:
            if not seed_read:
                outcomes[budgets] = (type(exc), exc.args)
            raise
        if not seed_read:
            outcomes[budgets] = outcome
        return outcome
    if type(outcome) is InvariantReport:
        return outcome
    kind, args = outcome
    raise kind(*args)


# The points of _invariant_report at which a failure of the restricted stage
# is raised: before the input's own det H check, after it, and after mu0.
_LOCUS, _SURROGATE, _TOP = range(3)


class _Stage(NamedTuple):
    """What _invariant_report computes from the restricted germ and the
    budgets alone: the locus check (None when g restricts to no generator),
    the corank of H(0), whether the restricted det H is zero, the
    locus_icis, sigma1_icis and a_finite checks, a, and the top colength of
    mu1's Le-Greuel step; failure, when a step raised, is its point, type
    and args, and no later step ran.

    reports keeps, when g restricts to no generator, the InvariantReport of
    each (#A1, provenance) a job of the germ returned.  Such a report is a
    function of the stage and that pair: with no locus, mu0 = 0 and no seed
    is read; mu1, mu1_applicable, a, the corank and the checks (the locus
    membership checks, the stage's checks and the rank guards of mu1, a and
    the corank) are read off the stage; and n is the size of H plus 3, the
    size of the restricted H, which the stage's key holds."""

    locus: IcisCheck | None
    corank: int
    det_zero: bool
    checks: tuple[CheckResult, ...]
    a: int
    top: int | float
    failure: tuple[int, type, tuple] | None
    reports: dict[tuple[int, str], InvariantReport]

    def raise_at(self, point: int) -> None:
        """Raise a fresh copy of the kept failure, if it happened at point."""
        if self.failure is not None and self.failure[0] == point:
            _, kind, args = self.failure
            raise kind(*args)


# A benchmark run of 32 passes at seed 5 restricts batch-n5's 96 slots to 36
# unit-free flipped germs, heavy-local's 13 to 11 and a1-saturation's 26 to
# 26, so an LRU of 128 holds them all: 988 of batch-n5's 1024 lookups hit,
# 405 of heavy-local's 416 and 806 of a1-saturation's 832.  Every sign
# pattern of a germ whose g restricts to no generator shares one stage.
_RESTRICTED_GERMS = 128


@functools.lru_cache(maxsize=_RESTRICTED_GERMS)
def _restricted_stage(germ: _RestrictedGerm, budgets: Budgets) -> _Stage:
    """The _Stage of germ under budgets, a unit-free germ (_restrict): it is
    the stage of every germ that differs from germ by nonzero rational
    factors on H and on each generator, and by sign flips sigma of its
    variables.  Such factors multiply each row of the Jacobian, so each of
    its minors, and each minor of H by a nonzero constant; they keep the
    rank of H(0) and which minors vanish.  sigma is a ring automorphism
    that fixes every monomial up to sign, so the local order, H(0) and the
    variable names, and d_i sigma(p) = s_i * sigma(d_i p) for the sign s_i
    of x_i.  So each ideal handed to colength has, in the same order, the
    sigma-images of the generators the other germ's job would hand it up
    to nonzero constant factors.  colength substitutes the linear ones away
    by their reduced row-echelon rows, every other engine input passes
    through _ep_primitive, which sends p and c * p to one polynomial, and
    no choice of the engine reads the sign of a coefficient: each step is
    the sigma-image of the step it replaces, with the same colengths,
    unbounded variables, budget trips and error texts.  The
    stage keeps no input, of the (g, det H) check only its detail, and a
    report only when g restricts to no generator, when no report of the
    germ reads its seed or its input (_Stage)."""
    locus, corank, det_zero, checks, a, top = None, 0, False, [], 0, 0
    point = _LOCUS
    try:
        # with every generator linear V(g) is smooth: its check ideal holds
        # the 0 x 0 minor 1, a unit, and mu0 = 0
        locus = check_icis(germ.g, budgets) if germ.g else None
        ok, message = (locus.ok, locus.message()) if locus else (True, "singular locus colength 0")
        checks.append(CheckResult("locus_icis", ok, f"(g) i.c.i.s. test: {message}"))
        if not ok:
            raise InvalidIcisError(f"the locus ideal (g) is not an i.c.i.s.: {message}")

        # Surrogate for finite extended codimension: (g, det H) is an
        # i.c.i.s. and the a-colength is finite.  A unit det H at the origin
        # classifies the germ as corank 0, where both conditions are vacuous:
        # some (n-4)-minor of H is then a unit, so a = 0.
        corank = corank_at_origin(germ.h)
        if corank == 0:
            checks.append(
                CheckResult(
                    "sigma1_icis",
                    True,
                    "det H is a unit at the origin (corank 0); mu1 not applicable",
                )
            )
            checks.append(CheckResult("a_finite", True, "corank 0 forces a = 0"))
        else:
            # det H is one level past the (n-4)-minors that a needs; a
            # nonzero det H in the ideal of the linear generators restricts
            # to zero, and the check below fails on it as it does in all n
            # variables, so a job whose restricted det H is zero reads its
            # own det H to tell the two apart
            det_h, h_minors = determinant_and_minors(germ.h)
            det_zero = det_h.is_zero()
            point = _SURROGATE
            # the locus check's Jacobian rows and minors tower, one row longer
            sigma1 = check_icis(germ.g + (det_h,), budgets, locus)
            checks.append(
                CheckResult(
                    "sigma1_icis",
                    sigma1.ok,
                    f"(g, det H) i.c.i.s. test: {sigma1.message()}",
                )
            )
            try:
                a = compute_a(germ, h_minors, budgets)
                checks.append(CheckResult("a_finite", True, f"a = {a}"))
            except ComputationError as exc:
                checks.append(CheckResult("a_finite", False, str(exc)))
            failing = "; ".join(c.detail for c in checks[-2:] if not c.passed)
            if failing:
                raise ComputationError(f"finite-codimension surrogate failed: {failing}")
            point = _TOP
            top = top_colength(sigma1, budgets)
        failure = None
    except ComputationError as exc:
        failure = (point, type(exc), exc.args)
    return _Stage(locus, corank, det_zero, tuple(checks), a, top, failure, {})


def _invariant_report(inp: SingularityInput, mu0_of, budgets: Budgets) -> InvariantReport:
    """invariant_report's computation, with mu0_of(locus) the Milnor number
    of the checked locus."""
    if inp.f_expected is not None:
        verify_decomposition(inp)

    # the restriction sends a generator in the span of the linear ones to
    # zero too, so a zero generator is named first; a constant term stays,
    # on a generator that is not linear, and the locus check names it
    if any(q.is_zero() for q in inp.g):
        raise InvalidIcisError("zero generator in the presentation")
    germ, gens, restricted = _restrict(inp)
    stage = _restricted_stage(germ, budgets)
    stage.raise_at(_LOCUS)
    if stage.det_zero and determinant_and_minors(inp.h)[0].is_zero():
        raise InvalidIcisError(
            "det H vanishes identically, so (g, det H) is not an i.c.i.s."
        )
    stage.raise_at(_SURROGATE)

    # the kept check's levels are those of the job's own generators under
    # its flips up to nonzero constants, as _restricted_stage proves, so the
    # chains read those generators and are the flips' images of the job's
    # own chains, with the colengths its own check would give
    locus = stage.locus
    if locus is not None and locus.gens != gens:
        locus = replace(locus, gens=gens)
    mu0 = mu0_of(locus) if locus else 0
    mu1_applicable = stage.corank != 0
    stage.raise_at(_TOP)
    # (g) is a checked i.c.i.s. of Milnor number mu0, so mu1 is one step
    mu1 = milnor_top_step(stage.top, mu0) if mu1_applicable else 0
    a1, a1_prov = a1_count(inp, budgets, restricted=restricted)
    kept = stage.reports.get((a1, a1_prov))
    if kept is not None:
        return kept

    guards = _guard_inequalities(mu1, stage.a, stage.corank)
    checks = _LOCUS_MEMBERSHIP_CHECKS + stage.checks + guards
    report = InvariantReport(
        n=inp.n,
        mu0=mu0,
        mu1=mu1,
        mu1_applicable=mu1_applicable,
        a=stage.a,
        corank=stage.corank,
        a1=a1,
        a1_provenance=a1_prov,
        checks=checks,
    )
    bad = [c for c in guards if not c.passed]
    if bad:
        names = ", ".join(c.name for c in bad)
        raise InconsistencyError(f"rank guard violated: {names}")
    if stage.locus is None:
        stage.reports[a1, a1_prov] = report
    return report
