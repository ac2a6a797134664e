"""Milnor numbers of isolated complete intersection singularities.

Oracles: the classical simple-singularity values (A_k, D_k, E_k), the
quasi-homogeneous product formula mu = prod(p_i - 1) for sums of pure
powers, hand-checked chain colengths, and the chain as each step's own
minors call on the full recombination.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from milnorfibre import milnor
from milnorfibre.corpus import build_input, builtin_cases
from milnorfibre.errors import InvalidIcisError
from milnorfibre.milnor import (
    _chain_colengths,
    check_icis,
    draw_recombination,
    milnor_icis,
    recombine,
)
from milnorfibre.orders import local_order
from milnorfibre.rings import (
    PolyMatrix,
    Ring,
    corank_at_origin,
    determinant,
    int_determinant,
    jacobian,
    minors,
    parse_polynomial,
)
from milnorfibre.standard_basis import DEFAULT_BUDGETS, colength


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


def test_recombination_matrices_are_invertible():
    rng = random.Random(0)
    for size in (1, 2, 3, 4):
        m, det = draw_recombination(size, rng)
        assert len(m) == size
        assert det == int_determinant(m) != 0
        assert all(abs(e) <= 9 for row in m for e in row)


# --- the chain's minors ----------------------------------------------------

def corpus_presentations():
    """(name, generators) of every i.c.i.s. the corpus hands to milnor_icis:
    the locus (g) and, off corank 0, (g, det H)."""
    out = []
    for case in builtin_cases():
        inp = build_input(case, "given")
        out.append((f"{case.name}:g", inp.g))
        if corank_at_origin(inp.h):
            out.append((f"{case.name}:g,detH", inp.g + (determinant(inp.h),)))
    return out


CORPUS_PRESENTATIONS = corpus_presentations()


def per_step_chain(gens, matrix):
    """Oracle: recombine every generator, differentiate them all, and take
    the j x j minors of the first j rows by a minors call at each step j.
    Returns the chain's ideals."""
    ring = gens[0].ring
    fprime = recombine(gens, matrix)
    rows = jacobian(ring, list(fprime)).entries()
    return [
        list(fprime[: j - 1]) + list(minors(PolyMatrix(ring, rows[:j]), j))
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
    Jac(g) that check_icis keeps, in the same order."""
    _, gens = data.draw(st.sampled_from(CORPUS_PRESENTATIONS))
    k = len(gens)
    a = data.draw(invertible_matrices(k))
    recombined = jacobian(gens[0].ring, list(recombine(gens, a)))
    scaled = tuple(m.scale(int_determinant(a)) for m in check_icis(gens).maximal_minors)
    assert minors(recombined, k) == scaled


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "gens", [g for _, g in CORPUS_PRESENTATIONS], ids=[name for name, _ in CORPUS_PRESENTATIONS]
)
def test_chain_colengths_match_the_per_step_chain(monkeypatch, gens, seed):
    """The chain hands colength the same polynomials, in the same order, as
    the per-step route, and so gets the same colengths."""
    seen = []

    def recording(ideal, order, budgets):
        seen.append(list(ideal))
        return colength(ideal, order, budgets)

    monkeypatch.setattr(milnor, "colength", recording)
    check = check_icis(gens)
    matrix, det = draw_recombination(len(gens), random.Random(seed))
    cs = _chain_colengths(check, matrix, det, DEFAULT_BUDGETS)
    ideals = per_step_chain(gens, matrix)
    assert seen == ideals
    order = local_order(gens[0].ring.nvars)
    assert cs == [colength(ideal, order) for ideal in ideals]
