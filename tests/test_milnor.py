"""Milnor numbers of isolated complete intersection singularities.

Oracles: the classical simple-singularity values (A_k, D_k, E_k), the
quasi-homogeneous product formula mu = prod(p_i - 1) for sums of pure
powers, hand-checked chain colengths, the check's levels as the nonzero
Leibniz minors of each leading block of Jacobian rows, a fresh check for
one continued from the check of its head, the chain as each step's own
Leibniz minors on an invertible completion of the drawn rows, and
the chain on the seeded draws alone for the presented order and the one
Le-Greuel step.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from milnorfibre import milnor
from milnorfibre.corpus import build_input, builtin_cases
from milnorfibre.errors import (
    BudgetExceededError,
    ComputationError,
    InconsistencyError,
    InvalidIcisError,
)
from milnorfibre.jobs import Job, parse_job, run_homology
from milnorfibre.milnor import (
    RECOMBINATION_ATTEMPTS,
    _chain_colengths,
    check_icis,
    draw_recombination,
    milnor_icis,
    milnor_top_step,
    recombine,
    top_colength,
)
from milnorfibre.orders import local_order
from milnorfibre.rings import (
    PolyMatrix,
    Ring,
    corank_at_origin,
    int_determinant,
    jacobian,
    parse_polynomial,
)
from milnorfibre.standard_basis import DEFAULT_BUDGETS, INFINITE, Budgets, colength
from oracles import leibniz, oracle_minors, unreduced_staircase


def germ(texts, var_names):
    ring = Ring(tuple(var_names))
    return [parse_polynomial(t, ring) for t in texts]


# --- classical hypersurface values ---------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_a_k_series(k):
    gens = germ([f"x^{k + 1} + y^2"], ("x", "y"))
    assert milnor_icis(check_icis(gens)) == k


def test_d_and_e_series():
    assert milnor_icis(check_icis(germ(["x^3 + x*y^2"], ("x", "y")))) == 4  # D4
    assert milnor_icis(check_icis(germ(["x^3 + y^4"], ("x", "y")))) == 6  # E6
    assert milnor_icis(check_icis(germ(["x^3 + x*y^3"], ("x", "y")))) == 7  # E7
    assert milnor_icis(check_icis(germ(["x^3 + y^5"], ("x", "y")))) == 8  # E8


def test_smooth_and_node():
    assert milnor_icis(check_icis(germ(["x"], ("x", "y")))) == 0
    assert milnor_icis(check_icis(germ(["x^2 + y^2"], ("x", "y")))) == 1


def test_suspension_does_not_change_mu():
    # mu is stable under adding squares of new variables
    assert milnor_icis(check_icis(germ(["x^3 + y^2 + z^2"], ("x", "y", "z")))) == 2


@given(
    st.lists(st.integers(2, 5), min_size=1, max_size=3),
)
@settings(max_examples=25)
def test_quasi_homogeneous_product_formula(exponents):
    names = tuple(f"x{i + 1}" for i in range(len(exponents)))
    text = " + ".join(f"x{i + 1}^{p}" for i, p in enumerate(exponents))
    expected = 1
    for p in exponents:
        expected *= p - 1
    assert milnor_icis(check_icis(germ([text], names))) == expected


# --- complete intersections -----------------------------------------------

def test_icis_chain_example_in_five_variables():
    gens = germ(
        ["x1", "x2", "x3^2 - x3*x5^2 - x4^2"],
        ("x1", "x2", "x3", "x4", "x5"),
    )
    assert milnor_icis(check_icis(gens)) == 3


def test_codimension_two_icis():
    # (x^2 + y^2, z): two transversal lines as a space curve;
    # mu = 2*delta - r + 1 = 2*1 - 2 + 1 = 1
    gens = germ(["x^2 + y^2", "z"], ("x", "y", "z"))
    assert milnor_icis(check_icis(gens)) == 1
    assert milnor_icis(check_icis(gens), seed=5) == 1


def test_nonreduced_scheme_is_not_an_icis():
    # (x*y, x - y^2) in 3 variables: the zero scheme is non-reduced along
    # the z-axis, so the singular-locus colength is infinite
    gens = germ(["x*y", "x - y^2"], ("x", "y", "z"))
    assert not check_icis(gens).ok
    with pytest.raises(InvalidIcisError):
        milnor_icis(check_icis(gens))


def test_seed_independence():
    gens = germ(
        ["x1", "x2", "x3^2 - x3*x5^2 - x4^2"],
        ("x1", "x2", "x3", "x4", "x5"),
    )
    values = {milnor_icis(check_icis(gens), seed=s) for s in (0, 1, 7, 123)}
    assert values == {3}


def test_generator_order_invariance():
    a = germ(["x1", "x2", "x3^2 - x4^2 - x5^3"], ("x1", "x2", "x3", "x4", "x5"))
    b = [a[2], a[0], a[1]]
    assert milnor_icis(check_icis(a)) == milnor_icis(check_icis(b))


def test_invalid_icis_is_detected():
    gens = germ(["x*y", "x*z"], ("x", "y", "z"))
    check = check_icis(gens)
    assert not check.ok
    assert "INFINITE" in check.message()
    with pytest.raises(InvalidIcisError):
        milnor_icis(check_icis(gens))


def test_nonvanishing_generator_rejected():
    with pytest.raises(InvalidIcisError):
        milnor_icis(check_icis(germ(["x + 1"], ("x", "y"))))


def test_too_many_generators_rejected():
    with pytest.raises(InvalidIcisError):
        milnor_icis(check_icis(germ(["x", "y", "x + y"], ("x", "y"))))


def test_empty_presentation_rejected():
    with pytest.raises(InvalidIcisError, match="empty presentation"):
        check_icis(())


def test_recombination_rows_have_shape_and_bounds():
    """A draw is the first k-1 rows of a k x k recombination, read row by
    row from the stream: k(k-1) integers in [-9, 9]."""
    rng, stream = random.Random(0), random.Random(0)
    for k in (1, 2, 3, 4, 5):
        rows = draw_recombination(k, rng)
        assert len(rows) == k - 1 and all(len(row) == k for row in rows)
        assert all(abs(e) <= 9 for row in rows for e in row)
        assert [e for row in rows for e in row] == [stream.randint(-9, 9) for _ in range(k * (k - 1))]


# --- the chain's minors ----------------------------------------------------

def corpus_presentations():
    """(name, generators, mu) of every i.c.i.s. of the corpus: the locus (g)
    with mu0 and, off corank 0, (g, det H) with mu1."""
    out = []
    for case in builtin_cases():
        inp = build_input(case, "given")
        mu0, mu1, _, _ = case.expected
        out.append((f"{case.name}:g", inp.g, mu0))
        if corank_at_origin(inp.h):
            out.append((f"{case.name}:g,detH", inp.g + (leibniz(inp.h.entries(), inp.ring),), mu1))
    return out


CORPUS_PRESENTATIONS = corpus_presentations()


def completed(rows, k):
    """rows followed by the first unit row that makes them an invertible
    k x k matrix."""
    for i in range(k):
        a = rows + [[int(j == i) for j in range(k)]]
        if int_determinant(a):
            return a
    raise AssertionError(f"dependent rows {rows}")


def nonzero(values):
    return [v for v in values if v]


def nonzero_with_columns(values, ncols, k):
    """The nonzero k x k minors of one row subset, given in column-lex order
    over ncols columns, each as (column subset, minor)."""
    return tuple((c, v) for c, v in zip(combinations(range(ncols), k), values, strict=True) if v)


def per_step_chain(gens, matrix):
    """Oracle: recombine every generator, differentiate them all, and take
    the j x j minors of the first j rows by the Leibniz oracle at each step j.
    Returns the chain's ideals, with the zero minors kept."""
    ring = gens[0].ring
    fprime = recombine(gens, matrix)
    rows = jacobian(ring, list(fprime)).entries()
    return [
        list(fprime[: j - 1]) + list(oracle_minors(PolyMatrix(ring, rows[:j]), j))
        for j in range(1, len(gens) + 1)
    ]


@st.composite
def invertible_matrices(draw, size):
    entry = st.integers(-9, 9)
    rows = st.lists(st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size)
    return draw(rows.filter(lambda m: int_determinant(m) != 0))


@settings(max_examples=30)
@given(st.data())
def test_top_level_minors_are_det_a_times_the_checks(data):
    """The k x k minors of Jac(A*g) are det(A) times the maximal minors of
    Jac(g): the nonzero ones are those check_icis keeps, on the same column
    subsets, in the same order, each times det(A)."""
    _, gens, _ = data.draw(st.sampled_from(CORPUS_PRESENTATIONS))
    k, ncols = len(gens), gens[0].ring.nvars
    a = data.draw(invertible_matrices(k))
    recombined = jacobian(gens[0].ring, list(recombine(gens, a)))
    check = check_icis(gens)
    det = int_determinant(a)
    scaled = tuple((cols, m.scale(det)) for cols, m in check.levels[-1])
    assert nonzero_with_columns(oracle_minors(recombined, k), ncols, k) == scaled
    assert check.maximal_minors == tuple(m for _, m in check.levels[-1])


# per-call budget of the drawn-rows oracle; every corpus chain step takes
# under 300 reductions
ORACLE_BUDGETS = Budgets(reductions=1000)
# (presentation, seed) whose first drawn rows meet a Mora blow-up at the top
# step in the unreduced engine, which completes the standard basis in every
# variable: on the order-3 germ 1000 reductions take 0.3 s, 4000 take 11 s
# and 16000 more than 280 s.  colength substitutes the linear g away first
# and finishes under the oracle budget.
DRAWN_BLOW_UPS = {
    ("order-3-shear-negated-n5:g,detH", 2),
    ("order-4-shear-negated-n5:g,detH", 2),
}
PRESENTATION_PARAMS = [pytest.param(name, gens, mu, id=name) for name, gens, mu in CORPUS_PRESENTATIONS]


def assert_unreduced_blow_up(ideal):
    """The unreduced engine trips the oracle budget on ideal, which colength
    finishes under it."""
    order = local_order(ideal[0].ring.nvars)
    assert colength(ideal, order, ORACLE_BUDGETS) != INFINITE
    with pytest.raises(BudgetExceededError):
        unreduced_staircase(ideal, order, ORACLE_BUDGETS)


def drawn_top_step(check, seed):
    """The top-step ideal of the chain on the first seeded draw: the k-1
    recombined rows and the check's maximal minors."""
    rows = draw_recombination(len(check.gens), random.Random(seed))
    return list(recombine(check.gens, rows)) + list(check.maximal_minors)


def drawn_shears(ring, data):
    """The substitution of up to four shears x_i -> x_i + c*x_j, applied in
    turn, drawn from data."""
    n = ring.nvars
    images = list(ring.gens())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    for (i, j), c in data.draw(st.lists(st.tuples(pair, st.sampled_from((-2, -1, 1, 2))), max_size=4)):
        images[i] = images[i] + images[j].scale(c)
    return dict(zip(ring.variables, images))


def assert_levels_are_the_leading_minors(gens):
    """Level j of the check is the nonzero Leibniz minors of the first j
    rows of the Jacobian, each with its column subset, in column-lex order,
    and its maximal minors are the nonzero Leibniz minors of the whole of
    it."""
    ring, k = gens[0].ring, len(gens)
    jac = jacobian(ring, list(gens))
    check = check_icis(gens)
    assert check.jacobian == jac
    assert len(check.levels) == k
    for j in range(1, k + 1):
        block = PolyMatrix(ring, jac.entries()[:j])
        assert check.levels[j - 1] == nonzero_with_columns(oracle_minors(block, j), ring.nvars, j)
    assert list(check.maximal_minors) == nonzero(oracle_minors(jac, k))


@pytest.mark.parametrize("name, gens, mu", PRESENTATION_PARAMS)
def test_check_levels_are_the_leading_minors(name, gens, mu):
    assert_levels_are_the_leading_minors(gens)


@settings(max_examples=30)
@given(st.data())
def test_check_levels_are_the_leading_minors_after_shears(data):
    _, gens, _ = data.draw(st.sampled_from(CORPUS_PRESENTATIONS))
    values = drawn_shears(gens[0].ring, data)
    assert_levels_are_the_leading_minors(tuple(q.substitute(values) for q in gens))


@pytest.mark.parametrize("name, gens, mu", PRESENTATION_PARAMS)
@settings(max_examples=5, deadline=None)
@given(sheared=st.booleans(), data=st.data())
def test_check_continued_from_its_head_is_the_fresh_check(name, gens, mu, sheared, data):
    """The check of gens built on the check of gens[:-1] equals a fresh
    check_icis(gens): gens, Jacobian, levels, colength and unbounded
    variables; with or without shears.  A head that checked other
    generators is refused."""
    if sheared:
        values = drawn_shears(gens[0].ring, data)
        gens = tuple(q.substitute(values) for q in gens)
    head = check_icis(gens[:-1])
    continued = check_icis(gens, head=head)
    fresh = check_icis(gens)
    assert continued.gens == fresh.gens
    assert continued.jacobian == fresh.jacobian
    assert continued.levels == fresh.levels
    assert (continued.ok, continued.colength) == (fresh.ok, fresh.colength)
    assert continued.unbounded_variables == fresh.unbounded_variables
    assert continued.levels[:-1] == head.levels
    others = [fresh]
    if gens[:-1][::-1] != gens[:-1]:
        others.append(check_icis(gens[:-1][::-1]))
    for other in others:
        with pytest.raises(ValueError, match="head is not the check"):
            check_icis(gens, head=other)


@pytest.mark.parametrize("name, gens, mu", PRESENTATION_PARAMS)
def test_presented_chain_reads_the_check(monkeypatch, name, gens, mu):
    """Where the presented order succeeds, milnor_icis recombines and
    differentiates nothing: every level of its chain comes from the check."""
    check = check_icis(gens)

    def refused(*args):
        raise AssertionError("the presented chain left the check")

    monkeypatch.setattr(milnor, "recombine", refused)
    monkeypatch.setattr(milnor, "jacobian", refused)
    assert milnor_icis(check) == mu


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, gens, mu", PRESENTATION_PARAMS)
def test_chain_colengths_match_the_per_step_chain(monkeypatch, name, gens, mu, seed):
    """Steps 1..k-1 hand colength the same polynomials, in the same order,
    as the per-step route on the drawn rows completed to an invertible A,
    with its zero minors dropped; step k hands the check's nonzero maximal
    minors, which the route has times det(A); every colength agrees, and
    no zero reaches colength.  At a known blow-up the unreduced engine
    trips the budget on the top-step ideals of both routes."""
    seen = []

    def recording(ideal, order, budgets):
        seen.append(list(ideal))
        return colength(ideal, order, budgets)

    monkeypatch.setattr(milnor, "colength", recording)
    check = check_icis(gens)
    k = len(gens)
    rows = draw_recombination(k, random.Random(seed))
    a = completed(rows, k)
    ideals = per_step_chain(gens, a)
    order = local_order(gens[0].ring.nvars)
    cs = _chain_colengths(check, rows, ORACLE_BUDGETS)
    assert seen[:-1] == [nonzero(ideal) for ideal in ideals[:-1]]
    det = int_determinant(a)
    assert nonzero(ideals[-1]) == seen[-1][: k - 1] + [m.scale(det) for m in seen[-1][k - 1 :]]
    assert all(all(ideal) for ideal in seen)
    assert cs == [colength(ideal, order) for ideal in ideals]
    if (name, seed) in DRAWN_BLOW_UPS:
        assert_unreduced_blow_up(seen[-1])
        assert_unreduced_blow_up(ideals[-1])


def drawn_mu(check, seed):
    """Oracle: mu from the chain on the seeded draws alone, never on the
    presented order; None when every draw leaves an infinite step."""
    k = len(check.gens)
    rng = random.Random(seed)
    for _ in range(RECOMBINATION_ATTEMPTS):
        cs = _chain_colengths(check, draw_recombination(k, rng), ORACLE_BUDGETS)
        if INFINITE not in cs:
            return sum(c if (k - j) % 2 == 0 else -c for j, c in enumerate(cs, start=1))
    return None


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, gens, mu", PRESENTATION_PARAMS)
def test_presented_order_matches_the_drawn_rows(name, gens, mu, seed):
    """milnor_icis, which tries the presented order first, gives the corpus
    value, and so does the chain on the seeded draws alone, also where its
    top step meets a blow-up of the unreduced engine."""
    check = check_icis(gens)
    assert milnor_icis(check, seed) == mu
    assert drawn_mu(check, seed) == mu
    if (name, seed) in DRAWN_BLOW_UPS:
        assert_unreduced_blow_up(drawn_top_step(check, seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, gens, mu", [p for p in PRESENTATION_PARAMS if p.id.endswith(":g,detH")])
def test_one_step_mu1_matches_the_drawn_chain(name, gens, mu, seed):
    """mu1 = colength((g) + the maximal minors of Jac(g, det H)) - mu0 is
    the corpus value and the drawn chain's on (g, det H), also where the
    drawn chain's top step meets a blow-up of the unreduced engine."""
    check = check_icis(gens)
    mu0 = milnor_icis(check_icis(gens[:-1]), seed)
    assert milnor_top_step(top_colength(check, ORACLE_BUDGETS), mu0) == mu
    assert drawn_mu(check, seed) == mu
    if (name, seed) in DRAWN_BLOW_UPS:
        assert_unreduced_blow_up(drawn_top_step(check, seed))


# (g, H, mu0, mu1) on which the top step's colength, with the minors first,
# meets a Mora blow-up in the unreduced engine that the head-first order of
# the same generators avoids: a sheared order-4 corpus germ with invariants
# (mu0, mu1, a, corank) = (0, 7, 4, 2).  Minors first the unreduced engine
# needs 16k-64k reductions, and invariant_report took 6-9 minutes on it
# before colength substituted the linear g away.
TOP_STEP_BLOW_UPS = [
    (
        ("x2 + x3", "x2"),
        (
            ("x2 - y1", "-3*x1 + 2*y1 - 2*y2"),
            ("-3*x1 + 2*y1 - 2*y2", "(2*x1 + x2 + y2)^4 - x2 + y1"),
        ),
        0,
        7,
    ),
]


@pytest.mark.parametrize("g, h, mu0, mu1", TOP_STEP_BLOW_UPS, ids=["order-4-shear"])
def test_top_step_blow_ups_finish_head_first(g, h, mu0, mu1):
    """Under 1000 reductions the head-first top colength gives mu0 + mu1 at
    once, and so does top_colength, minors first; in the unreduced engine
    the head-first order still finishes and the minors-first one trips."""
    names = ("x1", "x2", "x3", "y1", "y2")
    gens = germ(g, names)
    ring = gens[0].ring
    matrix = PolyMatrix(ring, [[parse_polynomial(t, ring) for t in row] for row in h])
    budgets = Budgets(reductions=1000)
    assert milnor_icis(check_icis(gens)) == mu0
    check = check_icis(gens + [leibniz(matrix.entries(), ring)])
    head_first = list(check.gens[:-1]) + list(check.maximal_minors)
    order = local_order(len(names))
    assert colength(head_first, order, budgets) == mu0 + mu1
    assert milnor_top_step(top_colength(check, budgets), mu0) == mu1
    assert unreduced_staircase(head_first, order, budgets) == (mu0 + mu1, ())
    minors_first = list(check.maximal_minors) + list(check.gens[:-1])
    with pytest.raises(BudgetExceededError):
        unreduced_staircase(minors_first, order, budgets)


@pytest.mark.parametrize("g, h, mu0, mu1", TOP_STEP_BLOW_UPS, ids=["order-4-shear"])
def test_top_step_blow_ups_finish_as_homology_jobs(g, h, mu0, mu1):
    """The whole homology job of the pinned germ, which used to run for
    minutes, finishes under the default budgets with its invariants; a = 4
    and corank 2 are those of the unsheared corpus germ."""
    matrix = ", ".join(f"[{', '.join(row)}]" for row in h)
    text = f"[ring]\nvars = x1 x2 x3 y1 y2\n[ideal]\ng = {'; '.join(g)}\n[matrix]\nh = [{matrix}]\n"
    inv = run_homology(Job(input=parse_job(text))).invariants
    assert (inv.mu0, inv.mu1, inv.a, inv.corank) == (mu0, mu1, 4, 2)


def test_rows_whose_stream_completion_is_singular_keep_mu():
    """The stream's next row would make the square draw singular; the chain
    never draws it, and mu is the same as at any other seed."""
    gens = germ(["x^2 + y^2", "z"], ("x", "y", "z"))
    check = check_icis(gens)

    def stream_completion(seed):
        rng = random.Random(seed)
        rows = draw_recombination(2, rng)
        return rows + [[rng.randint(-9, 9) for _ in range(2)]]

    seed = next(
        s for s in range(1000)
        if any(stream_completion(s)[0]) and int_determinant(stream_completion(s)) == 0
    )
    rows = stream_completion(seed)[:-1]
    assert INFINITE not in _chain_colengths(check, rows, DEFAULT_BUDGETS)
    assert milnor_icis(check, seed=seed) == 1


def drawn_or_tripped(check, seed):
    try:
        return drawn_mu(check, seed)
    except BudgetExceededError:
        return "tripped"


OFF_CORANK_ZERO = [case for case in builtin_cases() if case.expected[3] != 0]


@settings(max_examples=40)
@given(case=st.sampled_from(OFF_CORANK_ZERO), seed=st.integers(0, 4), data=st.data())
def test_fast_routes_match_the_drawn_rows_after_shears(case, seed, data):
    """On a corpus germ after up to four shears x_i -> x_i + c*x_j, the
    presented-order mu0 and the one-step mu1 are the corpus values.  The
    chain on the seeded draws alone gives the same values, or trips the
    oracle budget at a blow-up that only the drawn rows meet."""
    inp = build_input(case, "given")
    values = drawn_shears(inp.ring, data)
    g = tuple(q.substitute(values) for q in inp.g)
    locus, sigma1 = check_icis(g), check_icis(g + (leibniz(inp.h.entries(), inp.ring).substitute(values),))
    mu0, mu1, _, _ = case.expected
    assert milnor_icis(locus, seed) == mu0
    assert milnor_top_step(top_colength(sigma1), mu0) == mu1
    assert drawn_or_tripped(locus, seed) in (mu0, "tripped")
    assert drawn_or_tripped(sigma1, seed) in (mu1, "tripped")


# a node curve in 4-space, mu = 1, whose first generator alone is not an
# i.c.i.s.: the presented order leaves step 1 infinite
NODE_CURVE = ("x*y", "z", "w"), ("x", "y", "z", "w")


def test_zero_row_gives_an_infinite_step_and_a_retry(monkeypatch):
    """A presented prefix that is not an i.c.i.s. and dependent rows each
    leave a step whose colength is infinite, and milnor_icis draws again."""
    check = check_icis(germ(*NODE_CURVE))
    presented = [[1, 0, 0], [0, 1, 0]]
    assert _chain_colengths(check, presented, DEFAULT_BUDGETS)[0] == INFINITE
    zero = [[1, 2, 3], [0, 0, 0]]
    assert _chain_colengths(check, zero, DEFAULT_BUDGETS)[1] == INFINITE
    # a zero first row leaves no minor at step 1: the zero ideal
    assert _chain_colengths(check, [[0, 0, 0], [1, 2, 3]], DEFAULT_BUDGETS)[0] == INFINITE
    draws = []

    def first_zero(k, rng):
        draws.append(draw_recombination(k, rng))
        return zero if len(draws) == 1 else draws[-1]

    monkeypatch.setattr(milnor, "draw_recombination", first_zero)
    assert milnor_icis(check) == 1
    assert len(draws) == 2
    # the presented order drew nothing: the second draw is the stream's second
    stream = random.Random(0)
    assert draws == [draw_recombination(3, stream) for _ in range(2)]


def test_presented_order_draws_nothing(monkeypatch):
    """When the presented order's chain is finite, no row is drawn."""
    draws = []
    monkeypatch.setattr(milnor, "draw_recombination", lambda k, rng: draws.append(k))
    gens = germ(["x1", "x2", "x3^2 - x3*x5^2 - x4^2"], ("x1", "x2", "x3", "x4", "x5"))
    assert milnor_icis(check_icis(gens)) == 3
    assert draws == []


def test_presented_order_is_not_one_of_the_attempts(monkeypatch):
    """The attempt cap counts draws only: after the presented order fails,
    RECOMBINATION_ATTEMPTS dependent draws exhaust it."""
    draws = []

    def zero_rows(k, rng):
        draws.append(k)
        return [[1] * k] + [[0] * k for _ in range(k - 2)]

    monkeypatch.setattr(milnor, "draw_recombination", zero_rows)
    with pytest.raises(ComputationError, match=f"no valid recombination in {RECOMBINATION_ATTEMPTS} attempts"):
        milnor_icis(check_icis(germ(*NODE_CURVE)))
    assert len(draws) == RECOMBINATION_ATTEMPTS == 8


def test_top_step_refuses_an_unchecked_or_inconsistent_head():
    """The top step needs a check that passed (top_colength), a head that
    is an i.c.i.s. and a head Milnor number that leaves mu non-negative
    (milnor_top_step)."""
    with pytest.raises(InvalidIcisError):
        top_colength(check_icis(germ(["x*y", "x*z"], ("x", "y", "z"))))
    gens = germ(["x1", "x2", "x3^2 - x3*x5^2 - x4^2"], ("x1", "x2", "x3", "x4", "x5"))
    assert milnor_top_step(top_colength(check_icis(gens)), 0) == 3
    with pytest.raises(InconsistencyError, match="negative Milnor number -1"):
        milnor_top_step(top_colength(check_icis(gens)), 4)
    # the node curve's head (x*y, z) is not an i.c.i.s.
    with pytest.raises(InconsistencyError, match="infinite top colength"):
        milnor_top_step(top_colength(check_icis(germ(*NODE_CURVE))), 0)
