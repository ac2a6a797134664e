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
read at the origin, which the substitution fixes, and the #A1 estimate
saturates the Jacobian ideal of f in all n variables.  _restrict proves
that the checks report what they report in all n variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .homology import rank_guards
from .milnor import check_icis, milnor_icis, milnor_top_step
from .orders import local_order
from .rings import (
    PolyMatrix,
    Polynomial,
    Ring,
    _poly,
    corank_at_origin,
    determinant_and_minors,
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
    where the Morse-point count comes from.
    """

    ring: Ring
    g: tuple[Polynomial, ...]
    h: PolyMatrix
    f_expected: Polynomial | None = None
    a1_mode: str = "assume_zero"
    a1_count: int | None = None

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
    the ring of their free variables, g holds the images of the other
    generators, then a zero for each linear generator past the rank of the
    linear ones, so it has n - 3 entries for the n variables of ring, as an
    input does, and h is the image of H, of the same size as H."""

    ring: Ring
    g: tuple[Polynomial, ...]
    h: PolyMatrix

    @property
    def n(self) -> int:
        return self.ring.nvars


def _restrict(inp: SingularityInput) -> _RestrictedGerm:
    """inp restricted to the free variables of its linear generators l, by
    the substitution phi that colength applies to an ideal
    (_linear_substitution).  phi keeps degrees, so constant terms and the
    corank of H stay.

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
    the (g, det H) check."""
    linear = [all(sum(e) == 1 for e, _ in q.items()) for q in inp.g]
    free, phi = _linear_substitution([q for q, lin in zip(inp.g, linear) if lin], inp.n)
    ring = Ring(tuple(inp.ring.variables[j] for j in free))
    zero = ring.zero()

    def image(q: Polynomial) -> Polynomial:
        terms = phi(q) if q else None
        return _poly(ring, terms) if terms else zero

    dependent = sum(linear) - (inp.n - len(free))
    g = tuple(image(q) for q, lin in zip(inp.g, linear) if not lin) + (zero,) * dependent
    return _RestrictedGerm(ring, g, PolyMatrix(ring, [list(map(image, row)) for row in inp.h.entries()]))


def assemble_f(inp: SingularityInput) -> Polynomial:
    """Expand the matrix product g * H * g^t."""
    total = inp.ring.zero()
    k = len(inp.g)
    for i in range(k):
        for j in range(k):
            total = total + inp.g[i] * inp.h.entry(i, j) * inp.g[j]
    return total


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


def a1_count(
    inp: SingularityInput, f: Polynomial | None, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, str]:
    """Morse-point count with provenance; f = g * H * g^t, read only by estimate.

    provided -> the user's number; assume_zero -> 0 flagged as assumed;
    estimate -> colength of the Jacobian ideal of f saturated by the locus
    ideal, flagged experimental (downstream ranks are conditional on it).
    """
    if inp.a1_mode == "provided":
        return inp.a1_count, "provided"
    if inp.a1_mode == "assume_zero":
        return 0, "assumed"
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
    """
    needs_f = inp.f_expected is not None or inp.a1_mode == "estimate"
    f = verify_decomposition(inp) if needs_f else None
    checks = list(_LOCUS_MEMBERSHIP_CHECKS)

    # the restriction sends a generator in the span of the linear ones to
    # zero too, so a zero generator is named first; a constant term stays,
    # on a generator that is not linear, and the locus check names it
    if any(q.is_zero() for q in inp.g):
        raise InvalidIcisError("zero generator in the presentation")
    germ = _restrict(inp)
    # with every generator linear V(g) is smooth: its check ideal holds the
    # 0 x 0 minor 1, a unit, and mu0 = 0
    locus = check_icis(germ.g, budgets) if germ.g else None
    ok, message = (locus.ok, locus.message()) if locus else (True, "singular locus colength 0")
    checks.append(CheckResult("locus_icis", ok, f"(g) i.c.i.s. test: {message}"))
    if not ok:
        raise InvalidIcisError(f"the locus ideal (g) is not an i.c.i.s.: {message}")

    # Surrogate for finite extended codimension: (g, det H) is an i.c.i.s.
    # and the a-colength is finite.  A unit det H at the origin classifies
    # the germ as corank 0, where both conditions are vacuous: some
    # (n-4)-minor of H is then a unit, so a = 0.
    corank = corank_at_origin(inp.h)
    if corank == 0:
        a = 0
        checks.append(
            CheckResult(
                "sigma1_icis",
                True,
                "det H is a unit at the origin (corank 0); mu1 not applicable",
            )
        )
        checks.append(CheckResult("a_finite", True, "corank 0 forces a = 0"))
    else:
        # det H is one level past the (n-4)-minors that a needs; a nonzero
        # det H in the ideal of the linear generators restricts to zero, and
        # the check below fails on it as it does in all n variables
        det_h, h_minors = determinant_and_minors(germ.h)
        if det_h.is_zero() and determinant_and_minors(inp.h)[0].is_zero():
            raise InvalidIcisError(
                "det H vanishes identically, so (g, det H) is not an i.c.i.s."
            )
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

    mu0 = milnor_icis(locus, seed, budgets) if locus else 0
    mu1_applicable = corank != 0
    # (g) is a checked i.c.i.s. of Milnor number mu0, so mu1 is one step
    mu1 = milnor_top_step(sigma1, mu0, budgets) if mu1_applicable else 0
    a1, a1_prov = a1_count(inp, f, budgets)

    guards = _guard_inequalities(mu1, a, corank)
    checks.extend(guards)
    report = InvariantReport(
        n=inp.n,
        mu0=mu0,
        mu1=mu1,
        mu1_applicable=mu1_applicable,
        a=a,
        corank=corank,
        a1=a1,
        a1_provenance=a1_prov,
        checks=tuple(checks),
    )
    bad = [c for c in guards if not c.passed]
    if bad:
        names = ", ".join(c.name for c in bad)
        raise InconsistencyError(f"rank guard violated: {names}")
    return report
