"""Acceptance criteria, one test per criterion (parametrized per case).

Each numbered criterion is exact-match on integers, with the stated wall
clock bounds asserted.  Oracles: brute-force staircase counts, the
quasi-homogeneous product formula, rational-elimination rank, and the
closed-form consistency identities between tables.
"""

import random
import time
from fractions import Fraction

import pytest

from milnorfibre.corpus import build_input, builtin_cases, run_corpus
from milnorfibre.homology import (
    SPACE_BU,
    SPACE_BU_COVER,
    bouquet,
    dkp_fibre,
    milnor_fibre_homology,
    smith_normal_form,
    table_B,
    table_M,
    table_pair_B_Bu,
    table_X,
)
from milnorfibre.jobs import Job, run_homology
from milnorfibre.milnor import check_icis, milnor_icis
from milnorfibre.orders import local_order
from milnorfibre.rings import Polynomial, Ring, parse_polynomial
from milnorfibre.standard_basis import colength
from oracles import GradedOrder, basis_colength, universal_coefficients_mod2


def _case(name):
    matches = [c for c in builtin_cases() if c.name == name]
    assert len(matches) == 1, name
    return matches[0]


# --- criterion 1: the order-k family in C^5 ---------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_criterion_1_order_k_family(k):
    start = time.perf_counter()
    report = run_homology(Job(input=build_input(_case(f"order-{k}-family-n5"), "given")))
    inv = report.invariants
    assert (inv.mu0, inv.mu1, inv.a, inv.corank) == (0, 2 * k - 1, k, 2)
    assert report.fibre.group(3).rank == 1 and not report.fibre.group(3).torsion
    assert report.fibre.group(4).is_trivial()
    assert str(report.sphere_bouquet) == "S^3"
    assert time.perf_counter() - start < 10.0


# --- criterion 2: the worked two-point example in C^5 -------------------------

def test_criterion_2_two_point_example():
    start = time.perf_counter()
    report = run_homology(Job(input=build_input(_case("two-d32-points-n5"), "given")))
    inv = report.invariants
    assert (inv.mu0, inv.mu1, inv.a, inv.corank) == (0, 3, 2, 2)
    assert str(report.sphere_bouquet) == "S^3"
    assert time.perf_counter() - start < 10.0


# --- criterion 3: D(3,p) normal forms -----------------------------------------

@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_criterion_3_dkp_normal_forms(p, n):
    start = time.perf_counter()
    report = run_homology(Job(input=build_input(_case(f"d3{p}-normal-form-n{n}"), "given")))
    wedge = report.sphere_bouquet
    assert sum(count for _, count in wedge.spheres) == 1
    (dim, count), = wedge.spheres
    assert count == 1
    assert dim == n + p - 4 == dkp_fibre(3, p, n)
    assert time.perf_counter() - start < 10.0


# --- criterion 4: colength vs brute-force staircase ----------------------------

def _staircase_count(exponent_sets, bounds):
    """Count monomials not divisible by any generator, by explicit walk."""
    total = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == len(bounds):
            if not any(
                all(p >= e for p, e in zip(prefix, gen)) for gen in exponent_sets
            ):
                total += 1
            continue
        for value in range(bounds[len(prefix)]):
            stack.append(prefix + (value,))
    return total


def test_criterion_4_monomial_colength_oracle():
    start = time.perf_counter()
    rng = random.Random(20260816)
    checked = 0
    while checked < 50:
        nvars = rng.randint(1, 5)
        ring = Ring(tuple(f"x{i + 1}" for i in range(nvars)))
        # one pure power per variable guarantees a finite staircase
        exponents = []
        for i in range(nvars):
            e = [0] * nvars
            e[i] = rng.randint(1, 6)
            exponents.append(tuple(e))
        for _ in range(rng.randint(0, 4)):
            exponents.append(tuple(rng.randint(0, 6) for _ in range(nvars)))
        gens = [
            Polynomial(ring, {e: Fraction(1)}) for e in exponents if any(e)
        ]
        bounds = [
            min(e[i] for e in exponents if all(x == 0 for j, x in enumerate(e) if j != i) and e[i] > 0)
            for i in range(nvars)
        ]
        expected = _staircase_count([tuple(e) for e in exponents if any(e)], bounds)
        # colength under the local order, and the leads of the engine's
        # Groebner basis under the graded order of the oracles
        for order, colength_of in ((GradedOrder(nvars), basis_colength), (local_order(nvars), colength)):
            got = colength_of(gens, order)
            assert got == expected, (exponents, order.kind, got, expected)
        checked += 1
    assert time.perf_counter() - start < 5.0


# --- criterion 5: Milnor numbers vs the product formula -------------------------

def test_criterion_5_milnor_number_oracle():
    for k in range(1, 9):
        ring = Ring(("x", "y"))
        germ = [parse_polynomial(f"x^{k + 1} + y^2", ring)]
        assert milnor_icis(check_icis(germ)) == k, f"A_{k}"
    ring = Ring(("x", "y"))
    assert milnor_icis(check_icis([parse_polynomial("x^3 + x*y^2", ring)])) == 4  # D4
    rng = random.Random(7)
    for _ in range(10):
        nvars = rng.randint(1, 3)
        names = tuple(f"x{i + 1}" for i in range(nvars))
        ring = Ring(names)
        exps = [rng.randint(2, 5) for _ in range(nvars)]
        text = " + ".join(f"x{i + 1}^{p}" for i, p in enumerate(exps))
        expected = 1
        for p in exps:
            expected *= p - 1
        assert milnor_icis(check_icis([parse_polynomial(text, ring)])) == expected, text


# --- criterion 6: Smith normal form posts -----------------------------------------

def _rational_rank(m):
    a = [[Fraction(x) for x in r] for r in m]
    rank = 0
    rows, cols = len(a), len(a[0])
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rows):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _det_int(m):
    a = [[Fraction(x) for x in r] for r in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def test_criterion_6_smith_normal_form():
    rng = random.Random(66)
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        prod = [
            [sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)
        ]
        prod = [
            [sum(prod[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
            for i in range(rows)
        ]
        assert prod == d
        assert abs(_det_int(u)) == 1 and abs(_det_int(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert len(nonzero) == _rational_rank(m)


# --- criterion 7: table consistency sweep ------------------------------------------

def test_criterion_7_table_consistency_sweep():
    start = time.perf_counter()
    n = 8
    swept = 0
    for mu0 in range(0, 3):
        for mu1 in range(0, 7):
            for corank in (1, 2, 3):
                if corank == 1:
                    a_values = [0]
                else:
                    a_values = [
                        a
                        for a in range(1, mu1 + 1)
                        if mu1 - 2 * a + 1 >= 0
                        and (corank == 2 or mu0 + 2 * mu1 - 4 * a + 1 >= 0)
                    ]
                for a in a_values:
                    for a1 in (0, 2):
                        fibre, m = milnor_fibre_homology(mu0, mu1, a, corank, a1, n)
                        assert m == table_M(mu0, mu1, a, corank, n)
                        # rank splitting in the top degree
                        assert (
                            fibre.group(n - 1).rank == m.group(n - 1).rank + a1
                        )
                        assert bouquet(fibre) is not None
                    if corank >= 2:
                        tabs = table_pair_B_Bu(mu1, a, n)
                        chi_bu_even = (
                            tabs[SPACE_BU].rank(n - 4)
                            - tabs[SPACE_BU].rank(n - 3)
                            + tabs[SPACE_BU].rank(n - 2)
                            - tabs[SPACE_BU].rank(n - 1)
                        )
                        assert (
                            tabs[SPACE_BU_COVER].euler_characteristic()
                            == 2 * chi_bu_even
                        )
                        bi, b2 = table_B(mu1, a)
                        uc = universal_coefficients_mod2(bi)
                        for d in range(0, 5):
                            assert uc.group(d) == b2.group(d)
                        xi, x2 = table_X(mu1, a, n)
                        ucx = universal_coefficients_mod2(xi)
                        for d in range(0, n + 1):
                            assert ucx.group(d) == x2.group(d)
                    swept += 1
    assert swept > 30
    assert time.perf_counter() - start < 5.0


# --- criterion 8: determinism across seeds and variable orders ----------------------

def test_criterion_8_corpus_determinism():
    result = run_corpus(seeds=(0, 1, 2))
    failures = [o for o in result.outcomes if not o.passed]
    assert not failures, failures
    # every real case ran 3 seeds x 2 variable orders
    for outcome in result.outcomes[:-1]:
        assert "6 runs agree" in outcome.detail
