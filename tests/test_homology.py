"""Abelian groups, Smith normal form, homology tables, bouquets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from milnorfibre.errors import InconsistencyError
from milnorfibre.homology import (
    BouquetDescription,
    FgAbelianGroup,
    SPACE_B,
    SPACE_BU,
    SPACE_BU_COVER,
    SPACE_PAIR,
    bouquet,
    direct_sum,
    dkp_fibre,
    free_group,
    make_table,
    milnor_fibre_homology,
    mod2_group,
    smith_normal_form,
    table_B,
    table_M,
    table_X,
    table_pair_B_Bu,
    universal_coefficients_mod2,
)

# --- groups -----------------------------------------------------------------

def test_group_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup(-1)
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))  # chain must divide forward
    g = FgAbelianGroup(2, (2, 4))
    assert g.mod2_dimension() == 4
    assert str(g) == "Z^2 + Z/2 + Z/4"
    assert str(FgAbelianGroup(0, (2, 2, 2))) == "(Z/2)^3"
    assert str(FgAbelianGroup(0)) == "0"


def test_direct_sum_renormalizes():
    assert direct_sum(
        [FgAbelianGroup(1, (2,)), FgAbelianGroup(0, (3,)), FgAbelianGroup(2)]
    ) == FgAbelianGroup(3, (6,))
    assert direct_sum(
        [FgAbelianGroup(0, (2,)), FgAbelianGroup(0, (2,))]
    ) == FgAbelianGroup(0, (2, 2))


# --- Smith normal form --------------------------------------------------------

def test_snf_examples():
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    d, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]] and v == [[1, 0], [0, 1]]
    d, _, _ = smith_normal_form([[4, 6], [6, 9]])
    assert (d[0][0], d[1][1]) == (1, 0)


def _matmul(p, q):
    return [
        [sum(p[i][k] * q[k][j] for k in range(len(q))) for j in range(len(q[0]))]
        for i in range(len(p))
    ]


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


@given(
    st.integers(1, 6).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-20, 20), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
@settings(max_examples=60)
def test_snf_properties(m):
    d, u, v = smith_normal_form(m)
    # recomposition verified with a matmul independent of the implementation
    assert _matmul(_matmul(u, m), v) == d
    diag = [d[i][i] for i in range(min(len(m), len(m[0])))]
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert len(nonzero) == _rational_rank(m)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


# --- tables -------------------------------------------------------------------

def test_table_B_values_for_two_point_example():
    bi, b2 = table_B(3, 2)
    assert bi.group(3) == free_group(2)
    assert bi.group(2) == free_group(1)
    assert bi.group(1) == FgAbelianGroup(0, (2,))
    assert bi.group(0) == free_group(1)
    assert b2.group(3) == mod2_group(2)
    assert b2.group(2) == mod2_group(2)
    assert b2.group(1) == mod2_group(1)
    assert b2.group(0) == mod2_group(1)


def test_pair_ladder_values():
    tabs = table_pair_B_Bu(3, 2, 8)
    assert tabs[SPACE_PAIR].group(8) == free_group(2)
    assert tabs[SPACE_PAIR].group(7) == free_group(1)
    assert tabs[SPACE_PAIR].group(5) == free_group(1)
    assert tabs[SPACE_B].group(7) == FgAbelianGroup(0, (2, 2))
    assert tabs[SPACE_B].group(5) == FgAbelianGroup(0, (2,))
    assert tabs[SPACE_BU].group(7) == free_group(2)
    assert tabs[SPACE_BU].group(6) == free_group(1)
    assert tabs[SPACE_BU].group(5) == FgAbelianGroup(0, (2,))
    assert tabs[SPACE_BU].group(4) == free_group(1)
    assert tabs[SPACE_BU_COVER].group(3) == free_group(2)
    assert tabs[SPACE_BU_COVER].group(2) == free_group(1)
    assert tabs[SPACE_BU_COVER].group(0) == free_group(1)


def test_table_X_values():
    xi, x2 = table_X(3, 2, 8)
    assert xi.group(7).is_trivial()
    assert xi.group(6) == free_group(2)
    assert xi.group(2) == free_group(1)
    assert xi.group(0) == free_group(1)
    assert x2.group(6) == mod2_group(2)


def test_table_X_needs_positive_a():
    with pytest.raises(ValueError) as exc:
        table_X(3, 0, 8)
    assert "table_B" in str(exc.value)


def test_table_M_branches():
    m = table_M(0, 3, 2, 2, 8)
    assert m.group(7).is_trivial()  # 0 + 6 - 8 + 1 + 1 = 0
    assert m.group(6) == free_group(1)
    m1 = table_M(2, 5, 0, 1, 8)
    assert m1.group(7) == free_group(12)
    assert m1.group(5) == free_group(1)
    assert m1.group(2) == free_group(2)
    m0 = table_M(3, 0, 0, 0, 8)
    assert m0.group(7) == free_group(3)
    assert m0.group(4) == free_group(1)


def test_table_M_degree_collision_merges():
    # n = 4, corank 0: degrees n - 4 and 0 coincide, giving Z^2 (two sheets)
    m = table_M(1, 0, 0, 0, 4)
    assert m.group(0) == free_group(2)


def test_universal_coefficients_agrees_with_stated_mod2_tables():
    for mu1 in range(0, 7):
        for a in range(0, mu1 + 1):
            bi, b2 = table_B(mu1, a)
            uc = universal_coefficients_mod2(bi)
            for d in range(0, 5):
                assert uc.group(d) == b2.group(d), (mu1, a, d)


def test_guard_violations_raise():
    with pytest.raises(InconsistencyError):
        table_pair_B_Bu(1, 2, 8)  # mu1 - 2a + 1 < 0
    with pytest.raises(InconsistencyError):
        table_pair_B_Bu(3, 2, 7)  # ladder needs n >= 8
    with pytest.raises(InconsistencyError):
        table_B(1, 2)


# --- fibre homology -------------------------------------------------------------

def test_fibre_branches():
    f = milnor_fibre_homology(0, 3, 2, 2, 0, 5)
    assert f.group(3) == free_group(1) and f.group(4).is_trivial()
    f = milnor_fibre_homology(2, 5, 0, 1, 0, 8)
    assert f.group(7) == free_group(12) and f.group(5) == free_group(1)
    f = milnor_fibre_homology(2, 0, 0, 0, 0, 6)
    assert f.group(5) == free_group(2) and f.group(2) == free_group(1)
    f = milnor_fibre_homology(1, 4, 2, 3, 0, 9)
    assert f.group(8) == free_group(1 + 8 - 8 + 1)  # mu0 + 2mu1 - 4a + 1


def test_fibre_counts_morse_points_in_top_degree():
    base = milnor_fibre_homology(0, 3, 2, 2, 0, 5)
    with_a1 = milnor_fibre_homology(0, 3, 2, 2, 4, 5)
    assert with_a1.group(4).rank == base.group(4).rank + 4


def test_fibre_needs_dimension_at_least_five_for_positive_corank():
    with pytest.raises(InconsistencyError):
        milnor_fibre_homology(0, 0, 0, 1, 0, 4)
    # at n = 4 the fibre is two copies of the Milnor fibre of g, which the
    # closed forms do not give, so corank 0 is refused too
    with pytest.raises(InconsistencyError, match="need n >= 5, got n=4"):
        milnor_fibre_homology(1, 0, 0, 0, 0, 4)


def test_fibre_negative_rank_is_inconsistent():
    with pytest.raises(InconsistencyError):
        milnor_fibre_homology(0, 1, 1, 3, 0, 9)  # 0 + 2 - 4 + 1 < 0


# --- bouquets --------------------------------------------------------------------

def test_bouquet_readings():
    assert str(bouquet(milnor_fibre_homology(0, 3, 2, 2, 0, 5))) == "S^3"
    assert (
        str(bouquet(milnor_fibre_homology(2, 0, 0, 0, 0, 6))) == "S^5 v S^5 v S^2"
    )
    empty = BouquetDescription(())
    assert str(empty) == "point"


def test_bouquet_rejects_torsion_and_bad_h0():
    t = make_table(
        "Fibre", "integral", {0: free_group(1), 3: FgAbelianGroup(1, (2,))}
    )
    with pytest.raises(InconsistencyError) as exc:
        bouquet(t)
    assert "not a bouquet" in str(exc.value)
    t2 = make_table("Fibre", "integral", {0: free_group(2)})
    with pytest.raises(InconsistencyError):
        bouquet(t2)


# --- transversal sphere dimensions -------------------------------------------------

def test_dkp_fibre_values_and_guard():
    assert dkp_fibre(3, 0, 5) == 1
    assert dkp_fibre(3, 1, 6) == 3
    assert dkp_fibre(3, 2, 7) == 5
    assert dkp_fibre(2, 2, 6) == 5
    with pytest.raises(ValueError):
        dkp_fibre(3, 4, 6)
    with pytest.raises(ValueError):
        dkp_fibre(7, 1, 6)


# --- consistency sweep ---------------------------------------------------------------

admissible = st.tuples(
    st.integers(0, 2),  # mu0
    st.integers(0, 6),  # mu1
    st.integers(0, 6),  # a
    st.sampled_from([1, 2, 3]),  # corank
).filter(
    lambda t: (
        (t[3] == 1 and t[2] == 0)
        or (
            t[3] >= 2
            and 1 <= t[2] <= t[1]
            and t[1] - 2 * t[2] + 1 >= 0
            # corank >= 3 drops the extra class e, so the top Betti number
            # mu0 + 2*mu1 - 4a + 1 must be non-negative on its own
            and (t[3] == 2 or t[0] + 2 * t[1] - 4 * t[2] + 1 >= 0)
        )
    )
)


@given(admissible)
@settings(max_examples=80)
def test_admissible_parameters_build_consistent_tables(params):
    mu0, mu1, a, corank = params
    n = 8
    fibre = milnor_fibre_homology(mu0, mu1, a, corank, 0, n)
    assert fibre.group(0) == free_group(1)
    assert bouquet(fibre) is not None  # torsion-free by construction
    m = table_M(mu0, mu1, a, corank, n)
    assert fibre.group(n - 1).rank == m.group(n - 1).rank
    if corank >= 2:
        tabs = table_pair_B_Bu(mu1, a, n)
        chi_even = (
            tabs[SPACE_BU].rank(n - 4)
            - tabs[SPACE_BU].rank(n - 3)
            + tabs[SPACE_BU].rank(n - 2)
            - tabs[SPACE_BU].rank(n - 1)
        )
        assert tabs[SPACE_BU_COVER].euler_characteristic() == 2 * chi_even
