"""Invariants of the presentation f = g * H * g^T."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from milnorfibre import decomposition, milnor, rings, standard_basis as sb_module
from milnorfibre.corpus import _dkp_case, build_input, builtin_cases
from milnorfibre.decomposition import (
    SingularityInput,
    assemble_f,
    compute_a,
    invariant_report,
    verify_decomposition,
)
from milnorfibre.errors import (
    ComputationError,
    InconsistencyError,
    InvalidIcisError,
)
from milnorfibre.jobs import Job, run_homology
from milnorfibre.rings import PolyMatrix, Polynomial, Ring, parse_polynomial
from milnorfibre.standard_basis import DEFAULT_BUDGETS, Budgets
from oracles import (
    GradedOrder,
    fibre_colength_finite,
    full_ring_invariants,
    is_member,
    naive_assemble_f,
    oracle_minors,
)

R5 = Ring(("x1", "x2", "x3", "y1", "y2"))


def p(text, ring=R5):
    return parse_polynomial(text, ring)


def mk(g_texts, h_rows, ring=R5, **kwargs):
    g = tuple(p(t, ring) for t in g_texts)
    h = PolyMatrix(ring, [[p(t, ring) for t in row] for row in h_rows])
    return SingularityInput(ring=ring, g=g, h=h, **kwargs)


def family_input(k, **kwargs):
    return mk(
        ("y1", "y2"),
        (("x3", "x2"), ("x2", f"x1^{k} - x3")),
        **kwargs,
    )


def worked_example(**kwargs):
    return mk(("x1", "x2"), (("x3", "x4"), ("x4", "x3 - x5^2")),
              ring=Ring(("x1", "x2", "x3", "x4", "x5")), **kwargs)


# --- decomposition ---------------------------------------------------------

def test_assemble_f_expands_the_quadratic_form():
    inp = family_input(1)
    expected = p("x3*y1^2 + 2*x2*y1*y2 + x1*y2^2 - x3*y2^2")
    assert assemble_f(inp) == expected


SMALL_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * R5.nvars),
    st.sampled_from((-2, -1, 1, 2, 3)).map(Fraction),
    min_size=1,
    max_size=2,
).map(lambda terms: Polynomial(R5, terms))


@settings(max_examples=30, deadline=None)
@given(g=st.tuples(SMALL_POLYS, SMALL_POLYS), h=st.tuples(SMALL_POLYS, SMALL_POLYS, SMALL_POLYS))
def test_assembled_f_lies_in_the_square_of_the_locus_ideal(g, h):
    """The f_in_I_squared check is reported without a membership test because
    g * H * g^t lies in I^2 = (g_i * g_j) by construction; test that here
    under a graded (global) order, where completion stays small."""
    a, b, c = h
    inp = SingularityInput(ring=R5, g=g, h=PolyMatrix(R5, [[a, b], [b, c]]))
    square = [x * y for i, x in enumerate(g) for y in g[i:]]
    assert is_member(assemble_f(inp), square, GradedOrder(R5.nvars), Budgets(reductions=2000))


SPARSE_POLYS = st.one_of(st.just(Polynomial(R5, {})), SMALL_POLYS)
FRACTIONS = st.sampled_from((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), -2, 1))


@settings(max_examples=40, deadline=None)
@given(
    g=st.tuples(SPARSE_POLYS, SPARSE_POLYS),
    h=st.tuples(SPARSE_POLYS, SPARSE_POLYS, SPARSE_POLYS),
    factors=st.tuples(*[FRACTIONS] * 5),
)
@example(
    g=(Polynomial(R5, {}), p("y1")),
    h=(p("x1"), Polynomial(R5, {}), p("x2")),
    factors=(1,) * 5,
)
@example(
    g=(p("y1"), p("y2")),
    h=(p("x3"), p("x2"), p("-x3")),
    factors=(Fraction(1, 3), -2, Fraction(1, 2), 1, Fraction(-3, 4)),
)
def test_assemble_f_is_the_full_matrix_product(g, h, factors):
    """The upper-triangle sum equals all k^2 products g_i * H_ij * g_j, with
    Fraction coefficients and zero entries in g and H alike: factors scale
    the two generators and the three entries a, b, c of H."""
    g = tuple(q.scale(x) for q, x in zip(g, factors))
    a, b, c = (q.scale(x) for q, x in zip(h, factors[2:]))
    inp = SingularityInput(ring=R5, g=g, h=PolyMatrix(R5, [[a, b], [b, c]]))
    assert assemble_f(inp) == naive_assemble_f(inp)


def test_verify_decomposition_cross_check():
    good = family_input(1, f_expected=p("x3*y1^2 + 2*x2*y1*y2 + x1*y2^2 - x3*y2^2"))
    verify_decomposition(good)
    bad = family_input(1, f_expected=p("x3*y1^2"))
    with pytest.raises(InconsistencyError):
        verify_decomposition(bad)


def test_input_validation():
    with pytest.raises(ValueError):
        mk(("y1",), (("x3",),))  # len(g) != n - 3
    with pytest.raises(ValueError):
        mk(("y1", "y2"), (("x3", "x2"), ("x1", "x3")))  # not symmetric
    with pytest.raises(ValueError):
        SingularityInput(
            ring=Ring(("a", "b", "c")),
            g=(),
            h=PolyMatrix(Ring(("a", "b", "c")), [[parse_polynomial("a", Ring(("a", "b", "c")))]]),
        )  # n < 4
    # the report writes the count in place: True gave "a1": true in the JSON
    # and 2.5 a bare TypeError in the bouquet
    for count in (True, 2.5, Fraction(2)):
        with pytest.raises(ValueError, match="a1_count must be an int"):
            family_input(1, a1_mode="provided", a1_count=count)
    assert family_input(1, a1_mode="provided", a1_count=2).a1_count == 2


# --- corank ----------------------------------------------------------------

def test_corank_examples():
    assert rings.corank_at_origin(mk(("y1", "y2"), (("1", "0"), ("0", "1"))).h) == 0
    assert rings.corank_at_origin(mk(("y1", "y2"), (("x1", "0"), ("0", "1"))).h) == 1
    assert rings.corank_at_origin(family_input(2).h) == 2


# --- invariants on the worked examples --------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_invariants(k):
    rep = invariant_report(family_input(k))
    assert (rep.mu0, rep.mu1, rep.a, rep.corank) == (0, 2 * k - 1, k, 2)
    assert rep.a1 == 0 and rep.a1_provenance == "assumed"
    assert all(c.passed for c in rep.checks)


def test_sheared_order_4_invariants():
    """The order-4 germ after the invertible linear change of coordinates
    x1 -> x2 + y2, x2 -> x1, x3 -> x2 + y1, y1 -> x3 - 2*x2, y2 -> x2 keeps
    the invariants (0, 7, 4, 2).  Its chain colengths are where Mora's
    normal form swells without the highest corner."""
    inp = mk(("-2*x2 + x3", "x2"), (("x2 + y1", "x1"), ("x1", "(x2 + y2)^4 - x2 - y1")))
    rep = invariant_report(inp)
    assert (rep.mu0, rep.mu1, rep.a, rep.corank) == (0, 7, 4, 2)


def test_worked_example_invariants():
    rep = invariant_report(worked_example())
    assert (rep.mu0, rep.mu1, rep.a, rep.corank) == (0, 3, 2, 2)


def test_a_matches_direct_colength():
    # for the worked example: (g) + entries of H = (x1, x2, x3, x4, x3 - x5^2),
    # whose staircase is {1, x5}, so a = 2
    inp = worked_example()
    assert compute_a(inp, [m for m in oracle_minors(inp.h, 1) if m]) == 2


def test_corank_zero_reports_mu1_not_applicable():
    rep = invariant_report(mk(("y1", "y2"), (("1", "0"), ("0", "1"))))
    assert rep.corank == 0
    assert rep.mu1 == 0 and not rep.mu1_applicable
    assert rep.a == 0


def test_corank_at_least_two_forces_positive_a():
    for k in (1, 2, 3):
        rep = invariant_report(family_input(k))
        assert rep.corank >= 2 and rep.a >= 1
    rep = invariant_report(mk(("y1", "y2"), (("x1", "0"), ("0", "1"))))
    assert rep.corank == 1 and rep.a == 0


# --- a1 modes ---------------------------------------------------------------

def test_a1_provided_echoes():
    rep = invariant_report(family_input(2, a1_mode="provided", a1_count=5))
    assert rep.a1 == 5 and rep.a1_provenance == "provided"


def test_a1_estimate_on_example_with_no_morse_points():
    rep = invariant_report(worked_example(a1_mode="estimate"))
    assert rep.a1 == 0
    assert rep.a1_provenance == "experimental-saturation"


def test_a1_provided_requires_count():
    with pytest.raises(ValueError):
        family_input(1, a1_mode="provided")


# --- failure paths -----------------------------------------------------------

def test_nonisolated_corank_two_locus_fails():
    inp = mk(("y1", "y2"), (("x3", "x2"), ("x2", "-x3")))
    message = (
        "finite-codimension surrogate failed: (g, det H) i.c.i.s. test: "
        "INFINITE singular locus (unbounded in x1); "
        "corank-2 locus not isolated at origin"
    )
    with pytest.raises(ComputationError, match=re.escape(message)):
        invariant_report(inp)


def test_locus_must_be_an_icis():
    inp = mk(("y1*y2", "y1"), (("1", "0"), ("0", "1")))
    message = (
        "the locus ideal (g) is not an i.c.i.s.: "
        "INFINITE singular locus (unbounded in x1, x2, x3, y2)"
    )
    with pytest.raises(InvalidIcisError, match=re.escape(message)):
        invariant_report(inp)


def test_dependent_linear_generators_fail_the_locus_check():
    """2*y1 lies in the span of y1: the Jacobian's rows are dependent, so no
    maximal minor is nonzero and the check ideal is (y1), unbounded in every
    other variable.  Restricted to the free variables, 2*y1 becomes a zero
    generator, whose zero row gives the same failure."""
    inp = mk(("y1", "2*y1"), (("x3", "x2"), ("x2", "x1 - x3")))
    message = (
        "the locus ideal (g) is not an i.c.i.s.: "
        "INFINITE singular locus (unbounded in x1, x2, x3, y2)"
    )
    with pytest.raises(InvalidIcisError, match=re.escape(message)):
        invariant_report(inp)


def test_det_h_in_the_linear_locus_fails_the_sigma1_check():
    """det H = y1 is not zero but lies in (g): (g, det H) is (y1, y2), whose
    check fails on the three variables left.  Restricted to them, det H is
    zero, and the job must still report that check, not a det H that
    vanishes identically."""
    inp = mk(("y1", "y2"), (("y1", "0"), ("0", "1")))
    message = (
        "finite-codimension surrogate failed: (g, det H) i.c.i.s. test: "
        "INFINITE singular locus (unbounded in x1, x2, x3)"
    )
    with pytest.raises(ComputationError, match=re.escape(message)) as caught:
        invariant_report(inp)
    assert type(caught.value) is ComputationError


def test_identically_zero_det_h_is_named():
    # the (g, det H) check must name det H, not a generator the user never wrote
    inp = mk(("y1", "y2"), (("x1", "x1"), ("x1", "x1")))
    with pytest.raises(InvalidIcisError, match=re.escape("det H vanishes identically")):
        invariant_report(inp)


# --- one dataflow per job ----------------------------------------------------

@pytest.mark.parametrize(
    "inp, expected",
    [
        # corank 2: g is linear, so the restricted locus has no generator
        # and is smooth, and only (g, det H) is checked, once, in the three
        # free variables; mu1 is one step over that check, and mu0 = 0 needs
        # no chain; the #A1 estimate is read off the coefficients of H, so f
        # is neither assembled nor differentiated
        (worked_example(a1_mode="estimate"), (1, 1, 1, 0, 3)),
        # corank 0: the restricted locus has no generator, so nothing is
        # checked; a = 0 needs no colength, and f is assembled only to
        # cross-check an explicit f or for a saturated #A1 estimate, and
        # differentiated only for that estimate; this job asks for neither
        (mk(("y1", "y2"), (("1", "0"), ("0", "1"))), (0, 0, 0, 0, 0)),
    ],
)
def test_each_ideal_is_checked_once(monkeypatch, inp, expected):
    counts = dict.fromkeys(
        ("check_icis", "compute_a", "determinant_and_minors", "assemble_f", "derivative"), 0
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("check_icis", "compute_a", "determinant_and_minors", "assemble_f"):
        monkeypatch.setattr(decomposition, name, counting(name, getattr(decomposition, name)))
    # the derivative count pins where a job differentiates: a restricted g
    # is differentiated once, by the locus check, whose rows the (g, det H)
    # check keeps while it differentiates the restricted det H alone, and f
    # only to saturate for the #A1 estimate; the worked example, whose g
    # restricts to no generator and whose estimate is read off H, takes the
    # 3 partials of det H in its free variables, and no call of either germ
    # repeats a (polynomial, variable) pair already taken (in all n
    # variables the two jobs took 10 + 5 + 5 and 10)
    monkeypatch.setattr(Polynomial, "derivative", counting("derivative", Polynomial.derivative))
    # milnor_icis must run on the caller's check, not test its ideal again
    monkeypatch.setattr(milnor, "check_icis", decomposition.check_icis)
    invariant_report(inp)
    assert tuple(counts.values()) == expected


def curved_input(**kwargs):
    """g is linear, and H is constant along no direction across V(g): the
    directions along which it is constant are those of y2 alone."""
    return mk(("y1", "y2"), (("x3 + y1^2", "x2"), ("x2", "x1 - x3")), **kwargs)


def thom_sebastiani_input(**kwargs):
    """f = y1^2 + h^2 for h = x1^2 + x2^2 + x3^2 + y2^2, of Milnor number 1."""
    return mk(("y1", "x1^2 + x2^2 + x3^2 + y2^2"), (("1", "0"), ("0", "1")), **kwargs)


def corank3_input(**kwargs):
    """n = 6, g = (x4, x5, x6) and H = diag(x1, x2, x3): H(0) = 0 has
    corank 3, and the restricted quadrics t1^2, t2^2, t3^2 have no common
    zero but 0."""
    return mk(
        ("x4", "x5", "x6"),
        (("x1", "0", "0"), ("0", "x2", "0"), ("0", "0", "x3")),
        ring=Ring(tuple(f"x{i}" for i in range(1, 7))),
        **kwargs,
    )


@pytest.mark.parametrize(
    "inp, expected",
    [
        # corank 2: the binary quadrics u^2 + v^2 and 2uv, of nonzero
        # resultant, decide it in closed form
        (worked_example(a1_mode="estimate"), (0, 0)),
        # corank 2 of k = 3: u^2, 2uv and v^2 span every binary quadric
        (dataclasses.replace(build_input(_dkp_case(2, 6), "given"), a1_mode="estimate"), (0, 0)),
        # corank 3: one colength of the restricted quadrics in 3 variables
        (corank3_input(a1_mode="estimate"), (0, 1)),
        # outside the class, with a curved H or a nonlinear generator: one
        # elimination, whose basis colength reads
        (curved_input(a1_mode="estimate"), (1, 1)),
        (thom_sebastiani_input(a1_mode="estimate"), (1, 1)),
    ],
    ids=["worked-n5", "d32-n6", "corank3-n6", "curved-n5", "thom-sebastiani-n5"],
)
def test_a1_estimate_is_one_elimination(monkeypatch, inp, expected):
    """At most one elimination: a germ in the class of _fibre_finite has its
    estimate read off the coefficients of H, with no engine call when H(0)
    has corank at most 2 and one colength in corank-many variables
    otherwise, and is not saturated; any other germ is saturated by the
    k = n - 3 generators of (g) in one completion of the engine, and
    colength reads the leads of that basis.  One elimination per generator
    and their intersections would make 2k - 1."""
    counts = {"saturate": 0, "_standard_basis_ep": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(decomposition, "saturate", counting("saturate", decomposition.saturate))
    monkeypatch.setattr(
        sb_module, "_standard_basis_ep", counting("_standard_basis_ep", sb_module._standard_basis_ep)
    )
    assert decomposition.a1_count(inp) == (0, "experimental-saturation")
    assert counts == {"saturate": expected[0], "_standard_basis_ep": expected[1]}


def test_chain_minors_are_built_once(monkeypatch):
    """Polynomial products of a whole job on D(3,2) at n = 8: g is linear,
    so the job runs in the three free variables, where the locus has no
    generator and is not checked, det H is one level past the (n-4)-minors
    of the restricted H in one pass, the check of (g, det H) is that of
    det H alone, and mu1 is one step over that check.  The job gives no f
    and assumes #A1 = 0, so f is not assembled.  The per-step expansion of
    every level at every step took 1951, one prefix pass for both chains
    665, a second prefix pass over the presented head 97, assembling f
    although nothing read it 93, a (g, det H) check that rebuilt the locus
    tower 43, and det H from a minors pass of its own, apart from the
    (n-4)-minors of H, 38, and every check, the minors tower and det H in
    all n variables, before g's linear generators were substituted away
    once per job, 32."""
    count = [0]
    mul = Polynomial.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    rep = invariant_report(build_input(_dkp_case(2, 8), "given"), seed=0)
    assert (rep.mu0, rep.mu1, rep.a, rep.corank) == (0, 1, 1, 2)
    assert count[0] == 27


@pytest.mark.parametrize(
    "inp",
    [
        worked_example(),
        build_input(_dkp_case(2, 8), "given"),
        mk(("y1", "y2"), (("x1", "0"), ("0", "1"))),
    ],
    ids=["worked-n5-corank2", "d32-n8-corank2", "n5-corank1"],
)
def test_h_enters_the_minors_engine_once(monkeypatch, inp):
    """A corank >= 1 job takes det H and the (n-4)-minors of H from one pass
    of the minors engine over H restricted to the free variables of g's
    linear generators: the pass from level 1 to n-4, continued by the one
    level of det H.  Every other pass runs on a Jacobian.  The three germs'
    g are coordinate variables that H does not hold, so restricting H only
    moves its entries to the ring of the other variables."""
    handed = []
    levels = rings._minor_levels

    def recording(m, size, first=1, prev=None):
        handed.append((m, first))
        return levels(m, size, first, prev)

    monkeypatch.setattr(rings, "_minor_levels", recording)
    rep = invariant_report(inp)
    assert rep.corank >= 1
    ring = Ring(tuple(v for v in inp.ring.variables if inp.ring.variable(v) not in inp.g))
    restricted = PolyMatrix(
        ring, [[parse_polynomial(str(q), ring) for q in row] for row in inp.h.entries()]
    )
    assert [first for m, first in handed if m == restricted] == [1, inp.h.rows]
    assert all(m.rows < inp.h.rows for m, _ in handed if m != restricted)


@pytest.mark.parametrize(
    "inp",
    [worked_example(a1_mode="estimate"), build_input(_dkp_case(2, 8), "given")],
    ids=["worked-n5", "d32-n8"],
)
def test_no_zero_generator_reaches_the_staircase(monkeypatch, inp):
    """The checks, the Milnor chain, the top step and compute_a hand the
    staircase only nonzero generators: no level of a minors tower stores a
    zero minor, and compute_a drops the zero minors of H."""
    handed = []
    staircase = sb_module._staircase

    def recording(gens, *args, **kwargs):
        handed.append(list(gens))
        return staircase(gens, *args, **kwargs)

    monkeypatch.setattr(sb_module, "_staircase", recording)
    monkeypatch.setattr(milnor, "_staircase", recording)
    invariant_report(inp)
    assert handed
    assert all(all(gens) for gens in handed)


# --- presentation invariance -------------------------------------------------

WORKED_INVARIANTS = (0, 3, 2, 2)  # (mu0, mu1, a, corank) of worked_example()

# an elementary matrix I + c*E_ij as ((i, j), c)
ELEMENTARY = st.tuples(st.sampled_from([(0, 1), (1, 0)]), st.integers(-2, 2))


@settings(max_examples=15, deadline=None)
@given(steps=st.lists(ELEMENTARY, max_size=3), swap=st.booleans())
@example(steps=[((0, 1), 1)], swap=False)
def test_invariants_stable_under_unimodular_change_of_g(steps, swap):
    """Replace g by A*g and H by (A^-T) H (A^-1) for a unimodular integer A,
    a product of up to three elementary matrices after an optional swap of
    g: f is unchanged, so all invariants must be too."""
    base = worked_example()
    ring = base.ring
    a = [[0, 1], [1, 0]] if swap else [[1, 0], [0, 1]]
    a_inv = [row[:] for row in a]
    for (i, j), c in steps:
        # A <- (I + c*E_ij) A and A^-1 <- A^-1 (I - c*E_ij)
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a_inv:
            row[j] -= c * row[i]

    def combination(coeffs, polys):
        total = ring.zero()
        for c, q in zip(coeffs, polys):
            total = total + q.scale(c)
        return total

    new_g = tuple(combination(row, base.g) for row in a)
    new_h = PolyMatrix(
        ring,
        [
            [
                combination(
                    [a_inv[i][k] * a_inv[j][l] for i in range(2) for j in range(2)],
                    [base.h.entry(i, j) for i in range(2) for j in range(2)],
                )
                for l in range(2)
            ]
            for k in range(2)
        ],
    )
    changed = SingularityInput(ring=ring, g=new_g, h=new_h)
    assert assemble_f(changed) == assemble_f(base)
    rep = invariant_report(changed)
    assert (rep.mu0, rep.mu1, rep.a, rep.corank) == WORKED_INVARIANTS


# --- metamorphic: permutations of g and linear changes of coordinates ---------

# every corpus germ, with its expected invariants and bouquet
CORPUS_CASES = builtin_cases()


def homology_of(inp):
    rep = run_homology(Job(input=inp))
    inv = rep.invariants
    return (inv.mu0, inv.mu1, inv.a, inv.corank), str(rep.sphere_bouquet)


@settings(max_examples=150)
@given(case=st.sampled_from(CORPUS_CASES), data=st.data())
def test_permuting_g_keeps_the_invariants(case, data):
    """g -> P*g with H -> P*H*P^T leaves f unchanged.  An odd permutation
    flips the sign of every maximal minor of Jac(g)."""
    inp = build_input(case, "given")
    k = len(inp.g)
    perm = data.draw(st.permutations(range(k)))
    h = PolyMatrix(inp.ring, [[inp.h.entry(i, j) for j in perm] for i in perm])
    changed = SingularityInput(ring=inp.ring, g=tuple(inp.g[i] for i in perm), h=h)
    assert assemble_f(changed) == assemble_f(inp)
    assert homology_of(changed) == (case.expected, case.expected_bouquet)


@settings(max_examples=150)
@given(case=st.sampled_from(CORPUS_CASES), data=st.data())
def test_linear_coordinate_changes_keep_the_invariants(case, data):
    """Substitute x -> M*x for an invertible integer M, a permutation of the
    variables after up to four shears x_i -> x_i + c*x_j."""
    inp = build_input(case, "given")
    ring, n = inp.ring, inp.ring.nvars
    images = list(ring.gens())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    shear = st.tuples(pair, st.sampled_from((-2, -1, 1, 2)))
    for (i, j), c in data.draw(st.lists(shear, max_size=4)):
        images[i] = images[i] + images[j].scale(c)
    images = [images[i] for i in data.draw(st.permutations(range(n)))]
    values = dict(zip(ring.variables, images))
    changed = SingularityInput(
        ring=ring,
        g=tuple(q.substitute(values) for q in inp.g),
        h=PolyMatrix(ring, [[q.substitute(values) for q in row] for row in inp.h.entries()]),
    )
    assert homology_of(changed) == (case.expected, case.expected_bouquet)


# --- the restricted route against the full-ring oracle -----------------------

def _invertible(rng, size):
    """A random integer matrix with entries in [-2, 2] and nonzero
    determinant."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
        if rings.int_determinant(rows):
            return rows


def _combination(ring, coeffs, polys):
    total = ring.zero()
    for c, q in zip(coeffs, polys):
        total = total + q.scale(c)
    return total


def _changed(inp, rng):
    """inp after a random invertible integer change of coordinates and a
    random invertible recombination of g, with its a1 mode."""
    ring, n, k = inp.ring, inp.n, len(inp.g)
    images = [_combination(ring, row, ring.gens()) for row in _invertible(rng, n)]
    values = dict(zip(ring.variables, images))
    g = [q.substitute(values) for q in inp.g]
    h = PolyMatrix(ring, [[q.substitute(values) for q in row] for row in inp.h.entries()])
    g = [_combination(ring, row, g) for row in _invertible(rng, k)]
    return dataclasses.replace(inp, g=tuple(g), h=h)


def _presented_anew(inp, rng):
    """inp after a random invertible integer change of coordinates, a random
    invertible recombination of g, and polynomial multiples of one linear
    generator added to the other generators.  The ideals (g), (g, det H) and
    (g) + the (n-4)-minors of H keep their colengths and Milnor numbers, so
    every invariant stays; the coordinate change leaves g linear, and the
    multiples make some of it nonlinear."""
    changed = _changed(inp, rng)
    ring, k, g = inp.ring, len(inp.g), list(changed.g)
    lead = rng.randrange(k)
    for i in range(k):
        if i != lead and rng.random() < 0.7:
            multiple = ring.constant(rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 2)):
                multiple = multiple * rng.choice(ring.gens())
            g[i] = g[i] + multiple * g[lead]
    return dataclasses.replace(changed, g=tuple(g))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restricted_route_matches_the_full_ring_oracle(seed):
    """invariant_report, which substitutes g's linear generators away once
    per job, gives the full-ring route's (mu0, mu1, a, corank) and the same
    locus_icis, sigma1_icis and a_finite details, on corpus germs presented
    anew, and both give the corpus invariants."""
    rng = random.Random(seed)
    for _ in range(12):
        case = rng.choice(CORPUS_CASES)
        inp = _presented_anew(build_input(case, "given"), rng)
        milnor_seed = rng.randrange(100)
        rep = invariant_report(inp, seed=milnor_seed)
        details = {c.name: c.detail for c in rep.checks}
        got = (rep.mu0, rep.mu1, rep.a, rep.corank)
        expected, oracle_details = full_ring_invariants(inp, milnor_seed)
        assert got == expected == case.expected, (case.name, inp)
        assert {name: details[name] for name in oracle_details} == oracle_details


# --- the #A1 estimate: the fibre over the origin against the saturation -------

# g is linear and H is constant along y1 and y2, so the estimate is decided
# on the fibre, and every check of the job passes; but H(0) = 0 and the
# fibre ideal (w1^2, 2*w1*w2) vanishes at w = (0, 1): the y2-axis is critical
NEGATIVE_GERM = mk(("y1", "y2"), (("x1", "x2"), ("x2", "x3^2 + x1^2")), a1_mode="estimate")

# its fibre forms (w1 + w2)^2, from d/dx1 H = [[1, 1], [1, 1]], and
# w1^2 - w2^2 vanish at w = (1, -1), so the line y1 = -y2 is critical; its
# (g, det H) check fails, so it is no job
CROSSED_GERM = mk(("y1", "y2"), (("x1 + x2", "x1"), ("x1", "x1 - x2")), a1_mode="estimate")

NOT_ZERO_DIMENSIONAL = (
    "saturated Jacobian ideal is not 0-dimensional; cannot estimate the Morse-point count"
)


def estimate(inp, saturate=False):
    """The #A1 estimate of inp, or its error text; with saturate, by the
    saturation, the route a1_count takes when _fibre_finite refuses the
    germ."""
    with pytest.MonkeyPatch.context() as patch:
        if saturate:
            patch.setattr(decomposition, "_fibre_finite", lambda inp, budgets: None)
        try:
            return decomposition.a1_count(inp)
        except ComputationError as exc:
            return str(exc)


def fibre_estimate(inp):
    """The #A1 estimate of a germ in the class, as the colength of its fibre
    ideal over the origin gives it (the oracle fibre_colength_finite)."""
    finite = fibre_colength_finite(inp)
    assert finite is not None, inp
    return (0, "experimental-saturation") if finite else NOT_ZERO_DIMENSIONAL


@pytest.mark.parametrize("order", ["given", "reversed"])
def test_fibre_route_matches_the_saturation_on_the_corpus(order):
    """Every corpus germ, the sheared ones included, is in the class the
    fibre decides, and the closed form, the fibre's colength and the
    saturation all give it #A1 = 0; all three give the negative and the
    crossed germ the error."""
    for case in CORPUS_CASES:
        inp = dataclasses.replace(build_input(case, order), a1_mode="estimate")
        assert decomposition._fibre_finite(inp, DEFAULT_BUDGETS) is True, case.name
        assert estimate(inp) == fibre_estimate(inp) == estimate(inp, saturate=True) == (
            0, "experimental-saturation"
        )
    for inp in (NEGATIVE_GERM, CROSSED_GERM):
        assert decomposition._fibre_finite(inp, DEFAULT_BUDGETS) is False
        assert estimate(inp) == fibre_estimate(inp) == estimate(inp, saturate=True) == NOT_ZERO_DIMENSIONAL


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fibre_route_is_invariant_under_linear_changes(seed):
    """A random invertible integer change of coordinates and recombination
    of g keep the class, and the closed form and the fibre's colength give
    the changed germ the outcome the saturation gives the germ as
    presented.  The saturation of the changed germ itself is not run: its
    one elimination trips a budget of 1000 reductions on most such
    presentations."""
    rng = random.Random(seed)
    sources = [build_input(case, "given") for case in CORPUS_CASES] + [NEGATIVE_GERM]
    for _ in range(12):
        inp = dataclasses.replace(rng.choice(sources), a1_mode="estimate")
        changed = _changed(inp, rng)
        assert decomposition._fibre_finite(changed, DEFAULT_BUDGETS) is not None, changed
        assert estimate(changed) == fibre_estimate(changed) == estimate(inp, saturate=True), changed


# --- the closed form on random fibre data ------------------------------------

def _binary(rng):
    """A random binary quadric (a, b, c), for a u^2 + b uv + c v^2."""
    return [rng.randint(-3, 3) for _ in range(3)]


def _linear_times(rng, linear):
    """linear, a binary linear form (p, q), times a random one."""
    r, s = rng.randint(-2, 2), rng.randint(-2, 2)
    return [linear[0] * r, linear[0] * s + linear[1] * r, linear[1] * s]


def _resultant(q1, q2):
    (a1, b1, c1), (a2, b2, c2) = q1, q2
    return (a1 * c2 - a2 * c1) ** 2 - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)


def _pencil(rng, kind):
    """Three binary quadrics whose span is of the kind named, and whether
    they have no common zero but 0."""
    if kind == "shared-factor":
        linear = (rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))
        return [_linear_times(rng, linear) for _ in range(3)], False
    if kind == "coprime":
        while True:
            q1, q2 = _binary(rng), _binary(rng)
            if _resultant(q1, q2):
                break
        r, s = rng.randint(-2, 2), rng.randint(-2, 2)
        return [q1, q2, [r * x + s * y for x, y in zip(q1, q2)]], True
    if kind == "span-1":
        q = _binary(rng)
        while not any(q):
            q = _binary(rng)
        return [[r * x for x in q] for r in (rng.randint(-2, 2), 1, rng.randint(-2, 2))], False
    if kind == "span-3":
        while True:
            qs = [_binary(rng) for _ in range(3)]
            if rings.int_determinant(qs):
                return qs, True
    raise ValueError(kind)


def _fibre_germ(rng, k, corank, corners, fractions):
    """A germ at n = k + 3 with g = (x4, ..., xn) and H = H(0) + sum over
    l = 1..3 of x_l D_l + a curved term in x1 and x2, which leave H constant
    along the axes of g.  H(0) = P^t diag(d, 0) P has the corank asked for,
    and D_l = P^t E_l P, with E_l random but for its corner on the kernel
    coordinates, corners[l] as a symmetric corank x corank matrix; so the
    restricted quadrics are given by the corners.  With fractions, d holds
    Fractions."""
    ring = Ring(tuple(f"x{i}" for i in range(1, k + 4)))
    p_rows = _invertible(rng, k)
    unit = [Fraction(1, rng.choice((2, 3))) if fractions else 1 for _ in range(k)]
    diagonal = [rng.choice((-2, -1, 1, 2)) * unit[i] for i in range(k - corank)] + [0] * corank

    def conjugate(e):
        # P^t * e * P
        return [
            [sum(p_rows[r][i] * e[r][s] * p_rows[s][j] for r in range(k) for s in range(k)) for j in range(k)]
            for i in range(k)
        ]

    h0 = conjugate([[diagonal[i] if i == j else 0 for j in range(k)] for i in range(k)])
    slopes = []
    for corner in corners:
        e = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                inside = i >= k - corank and j >= k - corank
                e[i][j] = e[j][i] = corner[i - k + corank][j - k + corank] if inside else rng.randint(-2, 2)
        slopes.append(conjugate(e))
    x = ring.gens()
    curved = x[0] * x[1] if rng.random() < 0.5 else x[0] ** 2
    entries = [
        [
            ring.constant(h0[i][j])
            + sum((x[l] * slopes[l][i][j] for l in range(len(corners))), ring.zero())
            + (curved if i == j == 0 else ring.zero())
            for j in range(k)
        ]
        for i in range(k)
    ]
    return SingularityInput(
        ring=ring, g=tuple(x[3:]), h=PolyMatrix(ring, entries), a1_mode="estimate"
    )


def _symmetric(q):
    """The symmetric 2 x 2 matrix of the binary quadric (a, b, c), times 2 so
    it stays integral."""
    a, b, c = q
    return [[2 * a, b], [b, 2 * c]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_matches_the_fibre_colength_on_random_data(seed):
    """Random fibre data, H(0) of integers or Fractions of corank 0 to 3 and
    random D_l, some after a random linear change: the closed form agrees
    with the colength of the fibre ideal, and both outcomes occur at every
    corank from 1 to 3.  At corank 2 the pencils share a
    linear factor (infinite), are coprime (finite), span a line (infinite)
    or span every binary quadric (finite), and the closed form gives the
    outcome each kind has by construction."""
    rng = random.Random(seed)
    seen = set()
    for trial in range(40):
        k = rng.choice((2, 3))
        corank = rng.randint(0, k)
        fractions = rng.random() < 0.4
        expected = None
        if corank == 2:
            kind = ("shared-factor", "coprime", "span-1", "span-3")[trial % 4]
            pencil, expected = _pencil(rng, kind)
            corners = [_symmetric(q) for q in pencil]
            seen.add(kind)
        else:
            # a zero first diagonal entry in every corner puts t = (1, 0, ...)
            # in every restricted quadric's zeros
            degenerate = corank and trial % 3 == 0
            corners = []
            for _ in range(3):
                upper = [[rng.randint(-2, 2) for _ in range(corank)] for _ in range(corank)]
                if degenerate:
                    upper[0][0] = 0
                corners.append([[upper[min(i, j)][max(i, j)] for j in range(corank)] for i in range(corank)])
            expected = False if degenerate else None
        inp = _fibre_germ(rng, k, corank, corners, fractions)
        assert rings.corank_at_origin(inp.h) == corank
        finite = decomposition._fibre_finite(inp, DEFAULT_BUDGETS)
        assert finite is not None
        assert finite == fibre_colength_finite(inp), (corank, corners)
        if corank == 0:
            assert finite
        if expected is not None:
            assert finite == expected, (corank, corners)
        seen.add((corank, finite))
        if trial % 5 == 0:
            changed = _changed(inp, rng)
            assert decomposition._fibre_finite(changed, DEFAULT_BUDGETS) == finite
            assert fibre_colength_finite(changed) == finite
    kinds = {"shared-factor", "coprime", "span-1", "span-3"}
    assert kinds <= seen
    assert {(c, v) for c in (1, 2, 3) for v in (True, False)} | {(0, True)} == seen - kinds


# --- guards ------------------------------------------------------------------

def test_zero_h_raises_the_zero_jacobian_text():
    """H = 0 makes f = 0: straight to a1_count, a germ of the class names
    the zero Jacobian ideal, as the saturation does outside it."""
    zero = mk(("y1", "y2"), (("0", "0"), ("0", "0")), a1_mode="estimate")
    message = "zero Jacobian ideal; f is identically zero"
    with pytest.raises(ComputationError, match=re.escape(message)):
        decomposition.a1_count(zero)
    nonlinear = mk(("y1", "y2 + x1^2"), (("0", "0"), ("0", "0")), a1_mode="estimate")
    with pytest.raises(ComputationError, match=re.escape(message)):
        decomposition.a1_count(nonlinear)


def test_estimate_job_still_checks_an_explicit_f():
    """The estimate no longer assembles f, but a job that writes f checks it."""
    good = worked_example(a1_mode="estimate", f_expected=assemble_f(worked_example()))
    assert invariant_report(good).a1_provenance == "experimental-saturation"
    bad = worked_example(a1_mode="estimate", f_expected=p("x1^2*x3", good.ring))
    with pytest.raises(InconsistencyError, match="does not equal the expected f"):
        invariant_report(bad)


def test_negative_germ_fails_the_whole_job():
    """The germ passes every check of the job, so the estimate raises."""
    with pytest.raises(ComputationError, match=re.escape(NOT_ZERO_DIMENSIONAL)):
        invariant_report(NEGATIVE_GERM)
    rep = invariant_report(dataclasses.replace(NEGATIVE_GERM, a1_mode="assume_zero"))
    assert rep.a1_provenance == "assumed"


def test_thom_sebastiani_estimate_pins_a_known_limitation():
    """f = y1^2 + h^2 with h a Brieskorn-Pham polynomial of Milnor number 1.
    A generic deformation of g to (y1, h_s) with h_s(0) != 0 has mu0 = 1
    Morse point off the locus, so #A1 = 1, but the critical locus of f near
    0 is V(g), and the estimate, which only checks that, reports 0.  This
    pins today's behaviour, not a target."""
    rep = invariant_report(thom_sebastiani_input(a1_mode="estimate"))
    assert (rep.mu0, rep.mu1, rep.a, rep.corank) == (1, 0, 0, 0)
    assert (rep.a1, rep.a1_provenance) == (0, "experimental-saturation")
