"""Test-only routes over the standard-basis engine: a graded (global)
order and its elimination order, the untruncated standard basis, the
colength read off a standard basis under any order, the monic route over Q
that the integer engine replaced, weak normal form, ideal membership, the
leads of a basis, ideal intersection, saturation in a ring with a named tag
variable, and the local staircase in all variables; a germ's invariants and
checks in all its variables, with no linear generator of the locus
substituted away; the #A1 estimate's fibre ideal over the origin and its
colength; the recursive-descent parser of polynomial and matrix texts;
minors by the Leibniz formula; the rank of a rational matrix; the mod-2
table of an integral homology table by universal coefficients; and a
report as the document json.dumps renders.

The package computes none of these in a job, so they live here, as
oracles for the tests; the standard-basis routes are built on the engine's
private routines.  The package computes only in the local ring, but its
engine reads nothing of an order except key and nvars, so the routes here
drive it under the graded order too.  Under the local order, Mora normal
forms of small inputs can run for minutes; keep their inputs small or their
budgets tight.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from operator import add
from typing import Sequence

from milnorfibre.decomposition import SingularityInput, compute_a
from milnorfibre.errors import (
    ComputationError,
    ExponentError,
    InvalidIcisError,
    ParseError,
    UnknownVariableError,
)
from milnorfibre.homology import HomologyTable, make_table, mod2_group
from milnorfibre.milnor import check_icis, milnor_icis, milnor_top_step, top_colength
from milnorfibre.orders import (
    LOCAL_ANTIGRADED_REVLEX,
    MonomialOrder,
    elimination_order,
    local_order,
)
from milnorfibre.rings import (
    EXPANSION_BOUND,
    PolyMatrix,
    Polynomial,
    Ring,
    _canonical,
    _poly,
    _terms_add,
    _terms_mul,
    _terms_neg,
    _terms_pow,
    corank_at_origin,
    determinant_and_minors,
    monomial_degree,
    monomial_divides,
    reduced_row_echelon,
)
from milnorfibre.standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
    _EP,
    _EP_ZERO,
    _Counter,
    _below,
    _bounded_staircase,
    _ep_from_polynomial,
    _ep_to_polynomial,
    _standard_basis_ep,
    _weak_normal_form,
    colength,
)

_ONE = Fraction(1)


# --- a graded order, standard bases and colengths under any order ---------------
# The package's orders are the local order and its elimination order.  The
# graded order here is global: 1 is the least monomial, so a standard basis
# is a Groebner basis of the polynomial ideal, and ideals such as
# (x - x^2, y) keep the factor 1 - x that the local ring inverts.


@dataclass(frozen=True)
class GradedOrder:
    """Total degree up with a reverse-lexicographic tie-break on nvars
    variables; with eliminate_last, the last variable is a tag that compares
    first, globally, and the rest compares by the graded order.  Its keys
    are additive, as the engine needs."""

    nvars: int
    eliminate_last: bool = False

    @property
    def kind(self) -> str:
        return "eliminate_last_then_graded" if self.eliminate_last else "graded_revlex"

    def key(self, expo: tuple[int, ...]) -> tuple[int, ...]:
        if self.eliminate_last:
            body = expo[:-1]
            return (expo[-1], sum(body), *(-e for e in reversed(body)))
        return (sum(expo), *(-e for e in reversed(expo)))


Order = MonomialOrder | GradedOrder


def check_inputs(gens: Sequence[Polynomial], order: Order) -> Ring:
    """The ring of gens, which must be one ring, with order on its
    variables: the package's input checks, for any order."""
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators over different rings")
    if order.nvars != ring.nvars:
        raise ValueError("order and ring disagree on variable count")
    return ring


def standard_basis(
    gens: Sequence[Polynomial], order: Order, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[Polynomial, ...]:
    """Minimal monic standard basis of the ideal generated by gens, untruncated,
    under any order the engine takes."""
    ring = check_inputs(gens, order)
    eps = [_ep_from_polynomial(g, order) for g in gens]
    return tuple(_ep_to_polynomial(g, ring) for g in _standard_basis_ep(eps, order, budgets))


def basis_colength(
    gens: Sequence[Polynomial], order: Order, budgets: Budgets = DEFAULT_BUDGETS
) -> int | float:
    """Colength of the ideal read off the leads of an untruncated standard
    basis under order, graded or local: INFINITE when some variable has no
    pure power among them."""
    ring = check_inputs(gens, order)
    eps = [_ep_from_polynomial(g, order) for g in gens]
    leads = [g.lead for g in _standard_basis_ep(eps, order, budgets)]
    return _bounded_staircase(leads, ring.variables)[0]


# --- the monic route over Q ---------------------------------------------------
# The normal form as it ran before the engine kept integer coefficients: each
# reduction step scaled by a Fraction, Mora's table taking h monic.  It takes
# the same steps as the integer engine, so weak_normal_form runs both, and the
# tests' min-scan completion, built on it, compares bases, counts and budget
# trips with the engine's.


def exact_ep(p: Polynomial, order: Order) -> _EP:
    """p as an engine polynomial with its coefficients as they are, ints and
    Fractions, not scaled to integers."""
    terms = sorted(((order.key(e), e, c) for e, c in p.items()), key=lambda t: t[0], reverse=True)
    return _EP(tuple(terms))


def exact_polynomial(ep: _EP, ring) -> Polynomial:
    """ep as a polynomial, not made monic."""
    return _poly(ring, _canonical({e: c for _, e, c in ep.terms}))


def _inverse(c: int | Fraction) -> int | Fraction:
    """Exact 1/c: c itself for c = +-1, else a Fraction (never a float, as
    int / int would give)."""
    return c if c == 1 or c == -1 else _ONE / c


def _ep_scale(ep: _EP, c: int | Fraction) -> _EP:
    if c == 0:
        return _EP_ZERO
    if c == 1:
        return ep
    return _EP(tuple((k, e, q * c) for k, e, q in ep.terms), maxdeg=ep.maxdeg)


def _ep_monic(ep: _EP) -> _EP:
    return _ep_scale(ep, _inverse(ep.terms[0][2]))


def monic_sub_shifted(
    a: _EP, c: int | Fraction, skey: tuple, sexpo: tuple, b: _EP, cut: int | None = None
) -> _EP:
    """a - c * x^sexpo * b by a merge of all terms; skey must equal
    order.key(sexpo).  With cut set, under the local degree order only, the
    terms of degree >= cut are left out."""
    out = []
    aterms, bterms = a.terms, b.terms
    i = j = 0
    na, nb = len(aterms), len(bterms)
    if cut is not None:
        na = _below(aterms, cut)
        nb = _below(bterms, cut - monomial_degree(sexpo))
    while i < na and j < nb:
        ka = aterms[i][0]
        kb = tuple(map(add, bterms[j][0], skey))
        if ka > kb:
            out.append(aterms[i])
            i += 1
        elif ka < kb:
            kt, et, ct = bterms[j]
            out.append((kb, tuple(map(add, et, sexpo)), -c * ct))
            j += 1
        else:
            coeff = aterms[i][2] - c * bterms[j][2]
            if coeff != 0:
                out.append((ka, aterms[i][1], coeff))
            i += 1
            j += 1
    out.extend(aterms[i:na])
    while j < nb:
        kt, et, ct = bterms[j]
        out.append((tuple(map(add, kt, skey)), tuple(map(add, et, sexpo)), -c * ct))
        j += 1
    return _EP(tuple(out))


def monic_spoly(a: _EP, b: _EP, order: Order, cut: int | None = None) -> _EP:
    """S-polynomial of monic engine polynomials: x^(l-ea)*a - x^(l-eb)*b,
    without its terms of degree >= cut when cut is set."""
    ea, eb = a.lead, b.lead
    lcm = tuple(map(max, ea, eb))
    sa = tuple(x - y for x, y in zip(lcm, ea))
    sb = tuple(x - y for x, y in zip(lcm, eb))
    ka = order.key(sa)
    shifted = _EP(
        tuple((tuple(map(add, k, ka)), tuple(map(add, e, sa)), c) for k, e, c in a.terms),
        maxdeg=a.maxdeg + sum(sa),
    )
    return monic_sub_shifted(shifted, 1, order.key(sb), sb, b, cut)


def monic_weak_normal_form(
    f: _EP,
    reducers: Sequence[_EP],
    order: Order,
    counter: _Counter,
    cut: int | None = None,
) -> _EP:
    """Mora weak normal form over Q: unit * f minus a combination of the
    reducers, whose lead is divisible by no reducer lead; each step divides
    by the reducer's lead coefficient, and Mora's table takes h monic."""
    table = list(reducers)
    h = f
    while h.terms:
        _, le, lc = h.terms[0]
        idx = ecart_g = None
        for k, g in enumerate(table):
            if (ecart_g is None or g.ecart < ecart_g) and monomial_divides(g.lead, le):
                idx, ecart_g = k, g.ecart
                if not ecart_g:
                    break
        if idx is None:
            break
        g = table[idx]
        if ecart_g > h.ecart:
            table.append(_ep_scale(h, _inverse(lc)))
        counter.spend()
        c = lc * _inverse(g.terms[0][2])
        sexpo = tuple(x - y for x, y in zip(le, g.lead))
        h = monic_sub_shifted(h, c, order.key(sexpo), sexpo, g, cut)
    return h


def weak_normal_form(
    f: Polynomial,
    reducers: Sequence[Polynomial],
    order: Order,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> Polynomial:
    """Mora weak normal form of f against the given reducers (as given, no
    completion).  Zero iff f lies in the ideal when the reducers form a
    standard basis; the result equals unit * f - combination.

    Both routes run: the engine's, on integer multiples of the inputs, and
    the monic route over Q, on the inputs as given.  They must take the same
    reduction steps, and the engine's result must be a nonzero integer
    multiple of the monic route's, which is returned, unscaled."""
    check_inputs([f] + list(reducers), order)
    reducers = [g for g in reducers if not g.is_zero()]
    counter = _Counter(budgets.reductions, "reduction")
    h = _weak_normal_form(
        _ep_from_polynomial(f, order),
        [_ep_from_polynomial(g, order) for g in reducers],
        order,
        counter,
    )
    monic_counter = _Counter(budgets.reductions, "reduction")
    exact = monic_weak_normal_form(
        exact_ep(f, order), [exact_ep(g, order) for g in reducers], order, monic_counter
    )
    assert counter.used == monic_counter.used
    assert [e for _, e, _ in h.terms] == [e for _, e, _ in exact.terms]
    if h.terms:
        factor = Fraction(h.terms[0][2]) / exact.terms[0][2]
        assert factor.denominator == 1
        assert all(c == factor * q for (_, _, c), (_, _, q) in zip(h.terms, exact.terms))
    return exact_polynomial(exact, f.ring)


def is_member(
    f: Polynomial,
    gens: Sequence[Polynomial],
    order: Order,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> bool:
    """Ideal membership via weak normal form against a standard basis."""
    if f.is_zero():
        return True
    basis = standard_basis(gens, order, budgets)
    return weak_normal_form(f, basis, order, budgets).is_zero()


def leading_exponent(order: Order, exponents) -> tuple[int, ...]:
    """The exponent of exponents that order puts first."""
    return max(exponents, key=order.key)


def leading_exponents(
    basis: Sequence[Polynomial], order: Order
) -> tuple[tuple[int, ...], ...]:
    """Minimal generating exponents of the lead-monomial ideal of a basis,
    each lead read by leading_exponent, in sorted order."""
    exps = []
    for g in basis:
        if g.is_zero():
            continue
        exps.append(leading_exponent(order, g.terms))
    exps = sorted(set(exps))
    minimal = [
        e
        for e in exps
        if not any(o != e and monomial_divides(o, e) for o in exps)
    ]
    return tuple(minimal)


# --- tag elimination in a ring with a named tag --------------------------------
# The route saturation took before its tag became an exponent slot of the
# engine's term maps: a second ring with a fresh tag variable, the inputs
# lifted into it by Polynomial arithmetic, standard_basis, which makes every
# element monic, and a term-by-term filter of the tag-free ones.  It takes
# the graded order as well as the local one.


def _tag_extension(ring: Ring, order: Order) -> tuple[Ring, Order]:
    """ring with a fresh tag variable appended, and the block order in which
    the tag compares globally and dominates while the rest compares by order,
    which must be the local or the graded order; other orders are refused
    with saturate's message."""
    tag = "_t"
    k = 0
    while tag in ring.variables:
        k += 1
        tag = f"_t{k}"
    big = Ring(ring.variables + (tag,))
    if order.kind == LOCAL_ANTIGRADED_REVLEX:
        return big, elimination_order(big.nvars)
    if order == GradedOrder(ring.nvars):
        return big, GradedOrder(big.nvars, eliminate_last=True)
    raise ValueError(f"need the local order, not {order.kind!r}")


def _lift(p: Polynomial, big: Ring, tdeg: int) -> Polynomial:
    """Embed p in the tag-extended ring, multiplied by tag^tdeg."""
    return _poly(big, {e + (tdeg,): c for e, c in p.items()})


def _tag_free_part(
    lifted: list[Polynomial], elim: Order, ring: Ring, budgets: Budgets
) -> tuple[Polynomial, ...]:
    """The tag-free elements of a standard basis of lifted under elim, back in
    ring: a minimal standard basis of the eliminated ideal; (0,) when there
    are none."""
    free = [p for p in standard_basis(lifted, elim, budgets) if all(e[-1] == 0 for e in p.terms)]
    return tuple(_poly(ring, {e[:-1]: c for e, c in p.items()}) for p in free) or (ring.zero(),)


def tag_ring_saturation(
    gens: Sequence[Polynomial],
    igens: Sequence[Polynomial],
    order: Order,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[tuple[Polynomial, ...], int]:
    """saturate by the tag ring: (gens, 1 - sum_i t^i * q_i) lifted into the
    ring with a named tag t, its standard basis under the tag-dominant block
    order, and the elements none of whose terms holds t.  Returns (basis, 1),
    and raises the errors saturate raises, in the same order."""
    ring = check_inputs(list(gens) + list(igens), order)
    big, elim = _tag_extension(ring, order)
    divisors = [q for q in igens if not q.is_zero()]
    if not divisors:
        raise ValueError("saturation by the zero ideal")
    # 1 - sum_i t^i * q_i
    tagged = (_lift(q, big, i) for i, q in enumerate(divisors, start=1))
    rabinowitsch = big.one() - sum(tagged, big.zero())
    lifted = [_lift(p, big, 0) for p in gens if not p.is_zero()]
    return _tag_free_part(lifted + [rabinowitsch], elim, ring, budgets), 1


def intersect_ideals(
    a: Sequence[Polynomial],
    b: Sequence[Polynomial],
    order: Order,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[Polynomial, ...]:
    """Intersection of two ideals by tag elimination: the tag-free part of a
    standard basis of (t*a_i, (1-t)*b_j) under a tag-dominant block order."""
    ring = check_inputs(list(a) + list(b), order)
    big, elim = _tag_extension(ring, order)
    lifted = [_lift(p, big, 1) for p in a if not p.is_zero()]
    for q in b:
        if q.is_zero():
            continue
        # (1 - t) * q
        lifted.append(_lift(q, big, 0) - _lift(q, big, 1))
    if not lifted:
        return (ring.zero(),)
    return _tag_free_part(lifted, elim, ring, budgets)


def unreduced_staircase(
    gens: Sequence[Polynomial],
    order: Order,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[int | float, tuple[str, ...]]:
    """The local staircase with no linear generator substituted away: after
    the unit rule, the leads of a standard basis truncated at the highest
    corner, completed in every variable of the ring.  Returns the colength
    and the unbounded variables, as _staircase does."""
    ring = check_inputs(gens, order)
    if order.kind != LOCAL_ANTIGRADED_REVLEX:
        raise ValueError("the unreduced staircase needs the local order")
    if any(g.constant_coefficient() for g in gens):
        return 0, ()
    eps = [_ep_from_polynomial(g, order) for g in gens]
    leads = [g.lead for g in _standard_basis_ep(eps, order, budgets, highest_corner=True)]
    return _bounded_staircase(leads, ring.variables)


# --- a germ's invariants in all n variables ------------------------------------
# The route invariant_report took before it substituted the linear generators
# of g away once per job: the checks, the Milnor chain, the top step and the
# colength of a, each in every variable of the input's ring.


def full_ring_invariants(
    inp: SingularityInput, seed: int = 0, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[tuple[int, int, int, int], dict[str, str]]:
    """(mu0, mu1, a, corank) of inp and the details of its locus_icis,
    sigma1_icis and a_finite checks, in all n variables.  Raises what
    invariant_report raises, with the same text, where the germ is out of
    scope; the #A1 count and the rank guards are left out."""
    if any(q.is_zero() for q in inp.g):
        raise InvalidIcisError("zero generator in the presentation")
    locus = check_icis(inp.g, budgets)
    details = {"locus_icis": f"(g) i.c.i.s. test: {locus.message()}"}
    if not locus.ok:
        raise InvalidIcisError(f"the locus ideal (g) is not an i.c.i.s.: {locus.message()}")
    corank = corank_at_origin(inp.h)
    mu1 = a = 0
    if corank == 0:
        details["sigma1_icis"] = "det H is a unit at the origin (corank 0); mu1 not applicable"
        details["a_finite"] = "corank 0 forces a = 0"
    else:
        det_h, h_minors = determinant_and_minors(inp.h)
        if det_h.is_zero():
            raise InvalidIcisError("det H vanishes identically, so (g, det H) is not an i.c.i.s.")
        sigma1 = check_icis(inp.g + (det_h,), budgets, locus)
        details["sigma1_icis"] = f"(g, det H) i.c.i.s. test: {sigma1.message()}"
        failing = [] if sigma1.ok else [details["sigma1_icis"]]
        try:
            a = compute_a(inp, h_minors, budgets)
            details["a_finite"] = f"a = {a}"
        except ComputationError as exc:
            details["a_finite"] = str(exc)
            failing.append(str(exc))
        if failing:
            raise ComputationError(f"finite-codimension surrogate failed: {'; '.join(failing)}")
    mu0 = milnor_icis(locus, seed, budgets)
    if corank:
        mu1 = milnor_top_step(top_colength(sigma1, budgets), mu0)
    return (mu0, mu1, a, corank), details


# --- the #A1 estimate's fibre ideal, built and given its colength ----------
# The fibre ideal over the origin as an ideal of polynomials in k = n - 3
# variables w, with the class test solved for the kernel L of S, and its
# colength taken by the engine; the package reads the same outcome off the
# coefficients of H in closed form (decomposition._fibre_finite, which
# proves both routes).


def origin_fibre(inp: SingularityInput) -> list[Polynomial] | None:
    """The nonzero forms among H(0)*w and w^t * d_iH(0) * w, i = 1..n, in
    fresh variables w1..wk; None when inp is outside the class: some
    generator of g is not linear, or the coefficient rows A of g have rank
    below k on the kernel L of the system S whose rows are the coefficients
    of the monomials of the partials d_l H_ij."""
    n, k = inp.n, len(inp.g)
    a = []
    for q in inp.g:
        row = [0] * n
        for e, c in q.items():
            if sum(e) != 1:
                return None
            row[e.index(1)] = c
        a.append(row)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    system: dict[tuple, list] = {}
    forms: list[dict] = [{} for _ in range(n)]
    for i in range(k):
        for j in range(i, k):
            for e, c in inp.h.entry(i, j).items():
                for l, el in enumerate(e):
                    if el:
                        key = (i, j) + e[:l] + (el - 1,) + e[l + 1:]
                        system.setdefault(key, [0] * n)[l] += el * c
                if sum(e) == 1:
                    forms[e.index(1)][tuple(map(add, units[i], units[j]))] = c if i == j else 2 * c
    echelon, pivots = reduced_row_echelon(list(system.values()))
    # L has one basis vector per free column c: e_c minus (row p)[c] * e_p
    # over the pivots p; A on L is A times these vectors
    free = [c for c in range(n) if c not in pivots]
    on_kernel = [[row[c] - sum(r[c] * row[p] for p, r in zip(pivots, echelon)) for c in free] for row in a]
    if len(reduced_row_echelon(on_kernel)[1]) < k:
        return None
    ring = Ring(tuple(f"w{i}" for i in range(1, k + 1)))
    fibre = [
        Polynomial(ring, {units[j]: h.constant_coefficient() for j, h in enumerate(row)})
        for row in inp.h.entries()
    ]
    fibre += [Polynomial(ring, form) for form in forms]
    return [q for q in fibre if q]


def fibre_colength_finite(inp: SingularityInput, budgets: Budgets = DEFAULT_BUDGETS) -> bool | None:
    """Whether the colength of origin_fibre(inp) is finite, None outside its
    class; a zero fibre ideal, which colength refuses, has every w as a
    zero and counts as infinite."""
    fibre = origin_fibre(inp)
    if fibre is None:
        return None
    return bool(fibre) and colength(fibre, local_order(len(inp.g)), budgets) != INFINITE


# --- f as the full matrix product ---------------------------------------------
# assemble_f sums the upper triangle of the symmetric H on bare term maps; this
# takes all k^2 products g_i * H_ij * g_j through Polynomial arithmetic.


def naive_assemble_f(inp: SingularityInput) -> Polynomial:
    """g * H * g^t as the sum over every i, j of g_i * H_ij * g_j."""
    total = inp.ring.zero()
    k = len(inp.g)
    for i in range(k):
        for j in range(k):
            total = total + inp.g[i] * inp.h.entry(i, j) * inp.g[j]
    return total


# --- minors by the Leibniz formula --------------------------------------------
# The package's minors engine expands along the last row and keeps its levels;
# these sum the signed products over permutations directly.


def leibniz(rows, ring: Ring) -> Polynomial:
    """The determinant of a square array of polynomials as the sum over
    permutations of signed products of entries; 1 for the 0 x 0 array."""
    total = ring.zero()
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = ring.constant(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def oracle_minors(m, k: int) -> tuple[Polynomial, ...]:
    """All k x k minors of the PolyMatrix m by leibniz, zeros kept,
    lexicographic in (row subset, column subset)."""
    return tuple(
        leibniz([[m.entry(i, j) for j in cols] for i in rows], m.ring)
        for rows in combinations(range(m.rows), k)
        for cols in combinations(range(m.cols), k)
    )


def fraction_matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over Q, every row reduced at each
    pivot."""
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


# --- parsing -------------------------------------------------------------------

# The package parses a text in one pass over its tokens, with an explicit
# stack for parentheses; this is the recursive descent it replaced, one
# method per rule, which tokenizes the text on its own.

_DESCENT_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^()\[\],]")
# whitespace and tokens from the start of a text; the match stops where the
# tokens do, before any trailing whitespace
_DESCENT_TOKENS_RE = re.compile(rf"(?:\s*(?:{_DESCENT_TOKEN_RE.pattern}))*")
_SIGNS = {"+": 1, "-": -1}


class DescentParser:
    """Recursive-descent parser over the tokens of one text:

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* atom ('^' integer)?
        atom    := number | name | '(' expr ')'
        list    := '[' item (',' item)* ']'

    A factor's signs apply after its power, so -x^2 and x*-y^2 are negative.
    The rules build term maps {exponent: nonzero coefficient} and
    polynomial() makes one Polynomial of each at the end.  A product or
    power that may expand past EXPANSION_BOUND terms, and a power of one
    term with an exponent above it, are refused before they are multiplied
    out.  A token is its text: a name is an identifier, a number starts
    with a decimal digit, and an operator is itself; '' is the sentinel
    after the last token.  One match checks that the text is tokens and
    whitespace, one findall splits it, and a token's position is found only
    for an error.
    """

    def __init__(self, text: str, ring: Ring):
        self.ring = ring
        self.one = (0,) * ring.nvars  # the exponent of the monomial 1
        self.text = text
        rest = text[_DESCENT_TOKENS_RE.match(text).end():]
        if rest.strip():
            where = len(text) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[where]!r}", where)
        self.toks: list[str] = _DESCENT_TOKEN_RE.findall(text)
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
        starts = [m.start() for m in _DESCENT_TOKEN_RE.finditer(self.text)]
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
            try:
                count = str(terms)
            except ValueError:
                # past Python's int string limit
                count = f"over 2^{terms.bit_length() - 1}"
            raise self.error(
                ParseError, f"{what} may expand to {count} terms, over the bound {EXPANSION_BOUND}", at
            )


def descent_parse_polynomial(text: str, ring: Ring) -> Polynomial:
    parser = DescentParser(text, ring)
    return parser.parse(parser.polynomial)


def descent_parse_matrix(text: str, ring: Ring) -> PolyMatrix:
    parser = DescentParser(text, ring)
    rows = parser.parse(lambda: parser.bracketed(lambda: parser.bracketed(parser.polynomial)))
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("ragged matrix rows")
    return PolyMatrix(ring, rows)


# --- homology tables and reports ----------------------------------------------


def universal_coefficients_mod2(table: HomologyTable) -> HomologyTable:
    """Mod-2 table derived from an integral one: dim H_d(-;F2) equals
    rank H_d + (even torsion of H_d) + (even torsion of H_{d-1}).  The
    oracle of the jobs' universal-coefficient check, which compares the
    stated mod-2 table degree by degree without building this one."""
    if table.coefficients != "integral":
        raise ValueError("universal-coefficient transform needs an integral table")
    degrees = set(table.degrees()) | {d + 1 for d in table.degrees()}
    groups = {}
    for d in sorted(degrees):
        dim = table.group(d).mod2_dimension() + table.group(d - 1).two_torsion_count()
        if dim:
            groups[d] = mod2_group(dim)
    return make_table(table.space, "mod2", groups)


def _table_groups_doc(table: HomologyTable) -> dict:
    return {str(d): {"rank": g.rank, "torsion": list(g.torsion)} for d, g in table.entries}


def report_doc(report) -> dict:
    """The JSON document of a jobs.Report, as a dict: Report.to_json must
    give json.dumps(report_doc(report), indent=2) + "\\n"."""
    inv = report.invariants
    return {
        "invariants": {
            "n": inv.n,
            "mu0": inv.mu0,
            "mu1": inv.mu1,
            "mu1_applicable": inv.mu1_applicable,
            "a": inv.a,
            "corank": inv.corank,
            "a1": inv.a1,
            "a1_provenance": inv.a1_provenance,
        },
        "homology": _table_groups_doc(report.fibre) if report.fibre else None,
        "bouquet": (
            [{"dim": d, "count": c} for d, c in report.sphere_bouquet.spheres]
            if report.sphere_bouquet is not None
            else None
        ),
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail} for c in report.checks],
        "provenance": {
            "seed": report.seed,
            "a1_provenance": inv.a1_provenance,
            "notes": list(report.notes),
            "tables": {
                name: {
                    "space": t.space,
                    "coefficients": t.coefficients,
                    "groups": _table_groups_doc(t),
                }
                for name, t in report.tables
            },
        },
    }
