"""Invariants of a hypersurface germ presented as f = g * H * g^t.

The germ is singular along the 3-dimensional locus cut out by g (n-3
functions in n variables); H is a symmetric (n-3) x (n-3) polynomial matrix.
From this presentation the module computes the four numbers the homology
tables consume: mu0 (Milnor number of the locus), mu1 (Milnor number of the
locus intersected with det H = 0), a (colength of the corank-2 determinantal
scheme) and the corank of H at the origin, plus the Morse-point count #A1
under one of three modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ComputationError, InconsistencyError, InvalidIcisError
from .milnor import check_icis, milnor_icis
from .orders import local_order
from .rings import (
    PolyMatrix,
    Polynomial,
    Ring,
    corank_at_origin,
    determinant,
    minors,
)
from .standard_basis import (
    Budgets,
    DEFAULT_BUDGETS,
    INFINITE,
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


def compute_a(inp: SingularityInput, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """Colength of the corank >= 2 determinantal scheme on the locus:
    (g) + all minors of H of size n-4.  Scalar H (n = 4) gives 0."""
    size = inp.n - 4
    if size == 0:
        return 0
    gens = list(inp.g) + list(minors(inp.h, size))
    value = colength(gens, local_order(inp.n), budgets)
    if value == INFINITE:
        raise ComputationError("corank-2 locus not isolated at origin")
    return int(value)


def jacobian_ideal(f: Polynomial) -> tuple[Polynomial, ...]:
    return tuple(f.derivative(i) for i in range(f.ring.nvars))


def a1_count(
    inp: SingularityInput,
    partials: tuple[Polynomial, ...],
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[int, str]:
    """Morse-point count with provenance; partials are the partial derivatives
    of the assembled f = g * H * g^t.

    provided -> the user's number; assume_zero -> 0 flagged as assumed;
    estimate -> colength of the Jacobian ideal of f saturated by the locus
    ideal, flagged experimental (downstream ranks are conditional on it).
    """
    if inp.a1_mode == "provided":
        return inp.a1_count, "provided"
    if inp.a1_mode == "assume_zero":
        return 0, "assumed"
    jac = [p for p in partials if not p.is_zero()]
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


def locus_membership_checks(
    f: Polynomial, partials: tuple[Polynomial, ...]
) -> tuple[CheckResult, ...]:
    """f must have a vanishing 1-jet and lie in the square of the locus ideal;
    partials are the partial derivatives of f."""
    one_jet_ok = f.constant_coefficient() == 0 and all(
        d.constant_coefficient() == 0 for d in partials
    )
    # f lies in I^2 by construction, so no membership test is run: f is the
    # assembled sum of g_i * H_ij * g_j, each term a multiple of g_i * g_j,
    # and verify_decomposition rejects an explicit f that differs from it.
    return (
        CheckResult("vanishing_1jet", one_jet_ok, "f and all partials vanish at 0"),
        CheckResult("f_in_I_squared", True, "f lies in I^2"),
    )


def _guard_inequalities(mu1: int, a: int, corank: int) -> tuple[CheckResult, ...]:
    if corank < 2:
        return ()
    guards = (
        ("mu1 - 2a + 1 >= 0", mu1 - 2 * a + 1),
        ("mu1 - a >= 0", mu1 - a),
        ("2*mu1 - 3a + 1 >= 0", 2 * mu1 - 3 * a + 1),
    )
    return tuple(
        CheckResult(name, value >= 0, f"value {value}") for name, value in guards
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
    f = verify_decomposition(inp)
    partials = jacobian_ideal(f)
    checks: list[CheckResult] = []
    checks.extend(locus_membership_checks(f, partials))

    locus = check_icis(inp.g, budgets)
    checks.append(
        CheckResult("locus_icis", locus.ok, f"(g) i.c.i.s. test: {locus.message()}")
    )
    if not locus.ok:
        raise InvalidIcisError(
            f"the locus ideal (g) is not an i.c.i.s.: {locus.message()}"
        )

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
        sigma1 = check_icis(inp.g + (determinant(inp.h),), budgets)
        checks.append(
            CheckResult(
                "sigma1_icis",
                sigma1.ok,
                f"(g, det H) i.c.i.s. test: {sigma1.message()}",
            )
        )
        try:
            a = compute_a(inp, budgets)
            checks.append(CheckResult("a_finite", True, f"a = {a}"))
        except ComputationError as exc:
            checks.append(CheckResult("a_finite", False, str(exc)))
        failing = "; ".join(c.detail for c in checks[-2:] if not c.passed)
        if failing:
            raise ComputationError(f"finite-codimension surrogate failed: {failing}")

    mu0 = milnor_icis(locus, seed, budgets)
    mu1_applicable = corank != 0
    mu1 = milnor_icis(sigma1, seed, budgets) if mu1_applicable else 0
    a1, a1_prov = a1_count(inp, partials, budgets)

    guards = _guard_inequalities(mu1, a, corank) if mu1_applicable else ()
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
