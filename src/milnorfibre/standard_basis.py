"""Standard bases in the local ring Q[x]_(x), under the local degree order.

The normal form is Mora's weak normal form with ecart selection, which
terminates under the local order, where plain division need not.  Standard
bases come from Buchberger completion driven by that normal form.  On top of
these sit colength and saturation.  Saturation by (q_1, ..., q_r) is one tag
elimination: one extra exponent slot t in the engine's term maps, global
and dominant in a block order, Rabinowitsch's 1 - sum_i t^i * q_i, and the
t-free part of a standard basis, which is itself a standard basis of the
result.  With t dominant, an element is t-free exactly when its lead is, so
that part is read off the leads.

All routines are deterministic: reducer choice is (ecart, insertion index),
and S-pairs are popped from a heap in (lcm degree, i, j) order.  Each engine
polynomial caches its lead exponent and ecart when it is built, so the
reducer scan reads them instead of recomputing them.  Budgets abort loudly,
never truncate.

The engine works over Z, as Singular keeps its standard bases over Q with
cleared denominators (Greuel & Pfister, ch. 1-2).  An input is multiplied by
the lcm of its denominators; each element that enters the basis is made
primitive, divided by the gcd of its coefficients with its lead made
positive; a reduction step forms lc(g)/d * h - lc(h)/d * x^s * g, and an
S-polynomial lb/d * x^sa * a - la/d * x^sb * b from the tails alone, for d
the gcd of the two lead coefficients.  Every engine polynomial is then a
nonzero integer multiple of the one a monic completion over Q would hold,
so the leads, ecarts, reducer choices, counts and budget trips are that
completion's.  saturate makes each element it returns monic once, at the
end.

Under the local degree order a generator with a nonzero constant term is a
unit of the local ring, so its ideal is the whole ring: colength returns 0,
with no unbounded variable, before it builds any engine polynomial.  Linear
loci make such ideals common: the maximal minors of their Jacobians are
constants.  The completion stops as soon as an element of lead 1 enters
its basis: that element alone is the minimal standard basis, so a unit that
only a normal form reveals costs no further pairs.

Otherwise colength under the local degree order substitutes the linear
generators away: their coefficient rows in reduced row-echelon form send
each pivot variable to a form in the later, free variables, and the other
generators, rewritten in the free variables alone, have the same staircase
(the proof is in _local_staircase).  A germ whose locus is cut out by
linear forms is so counted in the free variables of the locus, where the
Mora completion runs on fewer variables and meets none of the blow-ups that
sheared linear loci met in all of them.

The rest gets its standard basis with the highest corner (Greuel & Pfister,
A Singular Introduction to Commutative Algebra, ch. 1): once the leads hold
a pure power x_i^b_i of every variable, m^D lies in the ideal for
D = sum(b_i - 1) + 1, so every term of degree >= D is dropped from
S-polynomials and reduction steps.  This is exact: the lead ideal, and so
the colength, do not change.  The truncated basis is no standard basis of
the ideal and never leaves colength; saturate computes untruncated ones.

colength then counts the staircase of the lead ideal by recursion over the
lead exponents, splitting on one variable's exponent (the Hilbert-function
recursion, Bayer & Stillman 1992).  Its work is at most the number of
variables times the count, so the count has no size limit of its own.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, le, sub
from typing import Callable, Sequence

from .errors import BudgetExceededError
from .orders import (
    LOCAL_ANTIGRADED_REVLEX,
    MonomialOrder,
    elimination_order,
    local_order,
)
from .rings import (
    Polynomial,
    Ring,
    _canonical,
    _poly,
    _terms_add,
    _terms_mul,
    _terms_pow,
    monomial_degree,
    monomial_divides,
    reduced_row_echelon,
)

INFINITE = float("inf")


@dataclass(frozen=True)
class Budgets:
    """Resource limits; exceeding one raises BudgetExceededError."""

    reductions: int = 2_000_000
    basis: int = 50_000


DEFAULT_BUDGETS = Budgets()


class _Counter:
    __slots__ = ("used", "limit", "what")

    def __init__(self, limit: int, what: str):
        self.used = 0
        self.limit = limit
        self.what = what

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"{self.what} budget exhausted ({self.limit}); "
                "raise the budget to continue"
            )


class _EP:
    """Engine polynomial: (key, exponent, coefficient) sorted by key,
    descending, with int coefficients.

    lead is the lead exponent and ecart the top degree minus the lead degree;
    both are None for the zero polynomial."""

    __slots__ = ("terms", "maxdeg", "lead", "ecart")

    def __init__(self, terms: tuple, maxdeg: int | None = None):
        self.terms = terms
        if maxdeg is None:
            maxdeg = max(map(sum, map(itemgetter(1), terms)), default=-1)
        self.maxdeg = maxdeg
        if terms:
            self.lead = terms[0][1]
            self.ecart = maxdeg - monomial_degree(self.lead)
        else:
            self.lead = self.ecart = None


_EP_ZERO = _EP(())


def _ep_from_polynomial(p: Polynomial | dict, order: MonomialOrder) -> _EP:
    """p, a polynomial or a bare term map, as an engine polynomial: p times
    the lcm of its denominators when it has a Fraction coefficient."""
    terms = sorted(
        ((order.key(e), e, c) for e, c in p.items()),
        key=lambda t: t[0],
        reverse=True,
    )
    if any(type(c) is not int for _, _, c in terms):
        m = lcm(*(c.denominator for _, _, c in terms))
        terms = [(k, e, c.numerator * (m // c.denominator)) for k, e, c in terms]
    return _EP(tuple(terms))


def _ep_to_polynomial(ep: _EP, ring: Ring) -> Polynomial:
    """The monic multiple of ep, ep divided by its lead coefficient, over
    ring: the exponent slots past ring.nvars are dropped."""
    lc, n = ep.terms[0][2], ring.nvars
    return _poly(ring, _canonical({e[:n]: Fraction(c, lc) for _, e, c in ep.terms}))


def _ep_primitive(ep: _EP) -> _EP:
    """ep divided by the gcd of its coefficients, with a positive lead."""
    terms = ep.terms
    d = gcd(*map(itemgetter(2), terms))
    if terms[0][2] < 0:
        d = -d
    if d == 1:
        return ep
    return _EP(tuple((k, e, c // d) for k, e, c in terms), maxdeg=ep.maxdeg)


def _term_degree(term: tuple) -> int:
    """Degree of an engine term under the local degree order, whose key
    starts with minus the degree."""
    return -term[0][0]


def _below(terms: tuple, cut: int) -> int:
    """Number of leading terms of degree < cut under the local degree order,
    which sorts terms by ascending degree."""
    return bisect_left(terms, cut, key=_term_degree)


def _ep_sub_shifted(
    a: tuple, ma: int, mb: int, skey: tuple, sexpo: tuple, b: tuple, cut: int | None = None
) -> _EP:
    """ma * a - mb * x^sexpo * b for engine term tuples a and b; skey must
    equal order.key(sexpo).  With cut set, under the local degree order
    only, the terms of degree >= cut are left out."""
    if cut is not None:
        a = a[: _below(a, cut)]
        b = b[: _below(b, cut - monomial_degree(sexpo))]
    if ma != 1:
        a = [(k, e, ma * c) for k, e, c in a]
    out = []
    i, na = 0, len(a)
    for kt, et, ct in b:
        kb = tuple(map(add, kt, skey))
        while i < na and a[i][0] > kb:
            out.append(a[i])
            i += 1
        if i < na and a[i][0] == kb:
            coeff = a[i][2] - mb * ct
            if coeff:
                out.append((kb, a[i][1], coeff))
            i += 1
        else:
            out.append((kb, tuple(map(add, et, sexpo)), -mb * ct))
    out.extend(a[i:])
    return _EP(tuple(out))


def _ep_spoly(a: _EP, b: _EP, order: MonomialOrder, cut: int | None = None) -> _EP:
    """S-polynomial (lb/d)*x^(l-ea)*a - (la/d)*x^(l-eb)*b of engine
    polynomials with leads la*x^ea and lb*x^eb, where l = lcm(ea, eb) and
    d = gcd(la, lb), without its terms of degree >= cut when cut is set.
    The leads cancel, so only the tails are merged; two one-term elements
    give zero."""
    if len(a.terms) == 1 and len(b.terms) == 1:
        return _EP_ZERO
    ea, eb = a.lead, b.lead
    lcm = tuple(map(max, ea, eb))
    sa = tuple(map(sub, lcm, ea))
    sb = tuple(map(sub, lcm, eb))
    la, lb = a.terms[0][2], b.terms[0][2]
    d = gcd(la, lb)
    ma = lb // d
    ka = order.key(sa)
    shifted = tuple(
        (tuple(map(add, k, ka)), tuple(map(add, e, sa)), ma * c) for k, e, c in a.terms[1:]
    )
    return _ep_sub_shifted(shifted, 1, la // d, order.key(sb), sb, b.terms[1:], cut)


def _weak_normal_form(
    f: _EP,
    reducers: Sequence[_EP],
    order: MonomialOrder,
    counter: _Counter,
    cut: int | None = None,
) -> _EP:
    """Mora weak normal form: an integer multiple of unit * f minus a
    combination of the reducers, whose lead is divisible by no reducer lead,
    for a unit of the local ring.  With cut set, each step drops the terms
    of degree >= cut."""
    table = list(reducers)
    h = f
    while h.terms:
        _, lead, lc = h.terms[0]
        # the first reducer of least ecart among those whose lead divides lead
        idx = ecart_g = None
        for k, g in enumerate(table):
            if (ecart_g is None or g.ecart < ecart_g) and all(map(le, g.lead, lead)):
                idx, ecart_g = k, g.ecart
                if not ecart_g:
                    break
        if idx is None:
            break
        g = table[idx]
        if ecart_g > h.ecart:
            table.append(h)
        counter.spend()
        # lg*h - lc*x^s*g over d = gcd(lc, lg): the leads cancel
        lg = g.terms[0][2]
        d = gcd(lc, lg)
        sexpo = tuple(map(sub, lead, g.lead))
        h = _ep_sub_shifted(
            h.terms[1:], lg // d, lc // d, order.key(sexpo), sexpo, g.terms[1:], cut
        )
    return h


def _standard_basis_ep(
    gens: Sequence[_EP],
    order: MonomialOrder,
    budgets: Budgets,
    highest_corner: bool = False,
) -> list[_EP]:
    """Minimal standard basis of the ideal of gens, as primitive engine
    polynomials with positive leads: each is an integer multiple of the
    element a monic completion over Q would hold, so leads, ecarts, reducer
    choices and pairs are the same.  With highest_corner, for the local
    degree order only, it is truncated at the highest corner: its leads
    still generate the lead ideal, but its elements lie in the ideal only
    modulo m^D."""
    counter = _Counter(budgets.reductions, "reduction")
    pair_counter = _Counter(budgets.basis, "basis pair")
    G: list[_EP] = []
    # heap of (lcm degree, i, j, lcm); pending holds the pairs not yet popped
    queue: list[tuple] = []
    pending: set[tuple[int, int]] = set()
    # least pure power of each variable among the leads, and D once every
    # variable has one
    pure: list[int | None] = [None] * order.nvars
    cut = None

    def add_element(g: _EP) -> bool:
        """Append g and queue its pairs; when its lead is 1, append it only
        and return True: a lead 1 divides every lead, so g alone is the
        minimal standard basis, the one element _minimalize would keep."""
        nonlocal cut
        new = len(G)
        G.append(g)
        if not any(g.lead):
            return True
        for k in range(new):
            lcm = tuple(map(max, G[k].lead, g.lead))
            heapq.heappush(queue, (monomial_degree(lcm), k, new, lcm))
            pending.add((k, new))
        if highest_corner:
            deg = monomial_degree(g.lead)
            for i, b in enumerate(g.lead):
                if b == deg and (pure[i] is None or b < pure[i]):
                    pure[i] = b
            if None not in pure:
                cut = sum(pure) - len(pure) + 1
        return False

    for g in gens:
        if g.terms and add_element(_ep_primitive(g)):
            return [G[-1]]

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        # the chain criterion: some other lead divides the lcm and neither
        # of its pairs with i and j is pending
        for k, g in enumerate(G):
            if (
                k != i
                and k != j
                and all(map(le, g.lead, lcm))
                and ((k, i) if k < i else (i, k)) not in pending
                and ((k, j) if k < j else (j, k)) not in pending
            ):
                break
        else:
            pair_counter.spend()
            s = _ep_spoly(G[i], G[j], order, cut)
            h = _weak_normal_form(s, G, order, counter, cut)
            if h.terms and add_element(_ep_primitive(h)):
                return [G[-1]]
    return _minimalize(G)


def _minimalize(G: list[_EP]) -> list[_EP]:
    """Drop elements whose lead is divisible by another kept element's lead."""
    order_keys = [g.terms[0][0] for g in G]
    keep: list[int] = []
    # scan by increasing lead degree so kept leads are the minimal generators
    idx = sorted(range(len(G)), key=lambda i: (monomial_degree(G[i].lead), i))
    for i in idx:
        ei = G[i].lead
        if any(monomial_divides(G[k].lead, ei) for k in keep):
            continue
        keep.append(i)
    keep.sort(key=lambda i: order_keys[i], reverse=True)
    return [G[i] for i in keep]


def _check_inputs(gens: Sequence[Polynomial], order: MonomialOrder) -> Ring:
    """The ring of gens, which must be one ring, with order the local order
    on its variables."""
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators over different rings")
    if order.nvars != ring.nvars:
        raise ValueError("order and ring disagree on variable count")
    if order.kind != LOCAL_ANTIGRADED_REVLEX:
        raise ValueError(f"need the local order, not {order.kind!r}")
    return ring


def colength(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
    basis: Sequence[Polynomial] | None = None,
) -> int | float:
    """Vector-space dimension of the quotient by the ideal; INFINITE when the
    staircase is unbounded (some variable has no pure power among the leads)."""
    return _staircase(gens, order, budgets, basis)[0]


def _staircase(
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets,
    basis: Sequence[Polynomial] | None = None,
) -> tuple[int | float, tuple[str, ...]]:
    """Colength of the ideal and the variables with no pure power among its
    leads; the colength is INFINITE exactly when there are such variables.

    A given basis has its leads read as the engine reads them.  Without one,
    the unit rule applies and then _local_staircase."""
    ring = _check_inputs(gens, order)
    if basis is not None:
        return _bounded_staircase(
            [_ep_from_polynomial(g, order).lead for g in basis if g], ring.variables
        )
    if any(g.constant_coefficient() for g in gens):
        return 0, ()
    return _local_staircase([g.terms for g in gens if g], ring.variables, budgets)


def _bounded_staircase(
    leads: Sequence[tuple[int, ...]], names: tuple[str, ...]
) -> tuple[int | float, tuple[str, ...]]:
    """The staircase of the leads over the variables names: its size and no
    unbounded variable, or INFINITE and the variables with no pure power."""
    unbounded = tuple(
        name
        for i, name in enumerate(names)
        if not any(e[i] == monomial_degree(e) for e in leads)
    )
    if unbounded:
        return INFINITE, unbounded
    return _count_staircase(leads, len(names)), ()


def _local_staircase(
    gens: list[dict], names: tuple[str, ...], budgets: Budgets
) -> tuple[int | float, tuple[str, ...]]:
    """_staircase under the local degree order of the ideal I of the nonzero
    term maps gens over the variables names, none with a constant term.

    The linear generators are substituted away first (_linear_substitution,
    which decomposition also applies to a whole germ).  Their coefficient
    rows in reduced row-echelon form have pivots x_p at the leftmost nonzero
    columns, and x1 > x2 > ... > xn on degree-1 terms, so each pivot is the
    lead of its row l_p = x_p - r_p, where r_p is a form in the free
    (non-pivot) variables to the right of x_p.  Let phi map each x_p to r_p
    and fix the free variables, and let I' = phi(I), the ideal of the images
    of the other generators in the ring of the free variables, with the same
    names in the same relative order.  Then I = (l_p) + I', and the lead
    ideal L(I) is (x_p) + L(I'), so the staircase of I is that of I' and the
    pivots are bounded.

    Proof.  phi(f) - f lies in (l_p), so I' lies in I and L(I') in L(I); the
    restriction of the order to the free variables is their own local degree
    order.  Conversely let f lie in I with lead(f) divisible by no pivot.
    phi maps each term divisible by a pivot to terms of the same degree that
    are smaller (x_p goes to later variables), and fixes the other terms.
    Every term of f but its lead is smaller than the lead, so
    lead(phi(f)) = lead(f), and phi(f) lies in I'.  The same holds in the
    localization, where f may carry a unit factor u: phi(u) keeps the
    constant term of u and is a unit too (Greuel & Pfister, A Singular
    Introduction to Commutative Algebra, ch. 1).

    phi keeps degrees, so no image has a constant term.  The images are
    checked again for linear generators: a generator that becomes linear is
    substituted away in turn.  When every variable is a pivot the colength
    is 1; when every generator is linear and a variable is left, the
    standard basis of no generators leaves every free variable unbounded.
    Without a linear generator the leads come from a standard basis
    truncated at the highest corner."""
    n = len(names)
    linear = [all(sum(e) == 1 for e in t) for t in gens]
    if not any(linear):
        order = local_order(n)
        eps = [_ep_from_polynomial(t, order) for t in gens]
        leads = [g.lead for g in _standard_basis_ep(eps, order, budgets, highest_corner=True)]
        return _bounded_staircase(leads, names)
    free, phi, _ = _linear_substitution([t for t, lin in zip(gens, linear) if lin], n)
    if not free:
        return 1, ()
    rest = [image for t, lin in zip(gens, linear) if not lin and (image := phi(t))]
    return _local_staircase(rest, tuple(names[j] for j in free), budgets)


def _linear_substitution(
    linear: Sequence[dict], n: int
) -> tuple[list[int], Callable[[dict], dict], tuple[tuple, ...]]:
    """The substitution phi of _local_staircase for the linear term maps
    linear over n variables: the free columns, ascending, phi from term
    maps over the n variables to term maps over the free ones, which sends
    each form in the span of linear to zero, and the reduced row-echelon
    rows phi is read from.  A term that holds no pivot variable is only
    re-keyed to the free variables; only the terms that hold one are
    expanded.  Only the items of a term map are read, so a Polynomial
    serves as one."""
    rows = []
    for t in linear:
        row = [0] * n
        for e, c in t.items():
            row[e.index(1)] = c
        rows.append(row)
    rows, pivots = reduced_row_echelon(rows)
    free = [j for j in range(n) if j not in pivots]
    # phi(x_p) = -(the free part of row p), as a term map over the free variables
    free_units = [tuple(int(j == k) for k in free) for j in free]
    images = [
        (p, {u: -row[j] for j, u in zip(free, free_units) if row[j]})
        for p, row in zip(pivots, rows)
    ]
    one = (0,) * len(free)

    def phi(t: dict) -> dict:
        image, held = {}, []
        for e, c in t.items():
            if any(map(e.__getitem__, pivots)):
                held.append((e, c))
            else:
                image[tuple(map(e.__getitem__, free))] = c
        for e, c in held:
            term = {tuple(map(e.__getitem__, free)): c}
            for p, r in images:
                if e[p]:
                    term = _terms_mul(term, _terms_pow(r, e[p], one))
            _terms_add(image, term)
        return _canonical(image) if held else image

    return free, phi, tuple(map(tuple, rows))


def _count_staircase(leads: Sequence[tuple[int, ...]], nvars: int) -> int:
    """Number of monomials in nvars variables that no lead divides, where the
    leads hold a pure power of every variable.

    Splits on the first exponent v at the values the leads take below its
    least pure power b: on each interval [lo, hi) of them the leads with
    e[0] <= v are the same, so x1^v * m lies outside the ideal exactly when no
    tail e[1:] of those leads divides m.  Each call stands for a distinct
    staircase prefix x1^lo, so the work is at most nvars times the count."""
    if any(not any(e) for e in leads):
        return 0
    if nvars == 0:
        return 1
    b = min(e[0] for e in leads if not any(e[1:]))
    cuts = sorted({0, b} | {e[0] for e in leads if e[0] < b})
    return sum(
        (hi - lo) * _count_staircase([e[1:] for e in leads if e[0] <= lo], nvars - 1)
        for lo, hi in zip(cuts, cuts[1:])
    )


def saturate(
    gens: Sequence[Polynomial],
    igens: Sequence[Polynomial],
    order: MonomialOrder,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[tuple[Polynomial, ...], int]:
    """Saturation J : (q)^infinity of J = (gens) by the ideal (q) of the
    nonzero q_1, ..., q_r in igens, by one Rabinowitsch elimination: with
    s = sum_i t^i * q_i it is (J, 1 - s) ∩ R, the tag-free part of a standard
    basis of (gens, 1 - s) under the tag-dominant block order.  With the tag
    global, that part is a standard basis under the local order (Cox,
    Little & O'Shea, ch. 4, section 4; Greuel & Pfister).

    The tag t is no variable of a ring: it is one more exponent slot, after
    the ring's variables, in the engine's term maps.  The block order
    compares the tag exponent first, so the lead of an element carries its
    highest tag power: the elements whose lead has tag exponent 0 are exactly
    the tag-free ones, and only they are made polynomials again.

    Proof.  If p * (q)^N lies in J, so does p * s^N, and
    p = p * s^N + p * (1 - s) * (1 + s + ... + s^(N-1)) lies in (J, 1 - s).
    Conversely, let p = b(t) * (1 - s) modulo J and sum h_m t^m = 1/(1 - s),
    so h_0 = 1 and h_m = sum_i q_i * h_(m-i).  Then h_m * p lies in J for
    every m > deg b.  Over a field, r consecutive zeros of h_m make every
    later h_m zero, so 1/(1 - s) is a polynomial and s = 0.  So every q_j
    vanishes where r consecutive h_m do, and by the Nullstellensatz over Q a
    power of each q_j lies in their ideal: p times that power lies in J.
    Under the local order the same argument runs in R localized at the
    maximal ideal, as for r = 1.

    Returns (basis, 1): a minimal standard basis of the saturation under
    order, and the number of tag eliminations."""
    ring = _check_inputs(list(gens) + list(igens), order)
    divisors = [q for q in igens if not q.is_zero()]
    if not divisors:
        raise ValueError("saturation by the zero ideal")
    n = ring.nvars
    # 1 - sum_i t^i * q_i, with the tag exponent in slot n
    rabinowitsch = {(0,) * (n + 1): 1}
    for i, q in enumerate(divisors, start=1):
        rabinowitsch.update({e + (i,): -c for e, c in q.items()})
    tagged = [{e + (0,): c for e, c in p.items()} for p in gens if p] + [rabinowitsch]
    elim = elimination_order(n + 1)
    basis = _standard_basis_ep([_ep_from_polynomial(t, elim) for t in tagged], elim, budgets)
    free = tuple(_ep_to_polynomial(g, ring) for g in basis if not g.lead[n])
    return free or (ring.zero(),), 1
