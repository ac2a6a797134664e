"""Finitely generated abelian groups and the homology tables.

Tables are generated from closed forms in the invariants (mu0, mu1, a,
corank, #A1, n); the consistency relations between them (Euler
characteristics, universal coefficients, rank splitting) are assertions and
the package's main test surface.  Degrees missing from a table are trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InconsistencyError
from .rings import int_determinant

SPACE_B = "B"
SPACE_BU = "B_u"
SPACE_PAIR = "(B,B_u)"
SPACE_BU_COVER = "B_u_tilde"
SPACE_X = "X"
SPACE_M = "M"
SPACE_FIBRE = "Fibre"


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^rank plus cyclic torsion in a divisibility chain d1 | d2 | ..."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion entry {d} < 2")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x != 0:
                raise ValueError(f"torsion chain broken: {x} does not divide {y}")

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_free(self) -> bool:
        return not self.torsion

    def two_torsion_count(self) -> int:
        """Number of cyclic factors of even order (Z2 dimension of torsion)."""
        return sum(1 for d in self.torsion if d % 2 == 0)

    def mod2_dimension(self) -> int:
        """dim over F2 of G tensor F2 = rank + number of even factors."""
        return self.rank + self.two_torsion_count()

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        run_value, run_len = None, 0
        for d in (*self.torsion, None):
            if d == run_value:
                run_len += 1
                continue
            if run_value is not None:
                parts.append(
                    f"Z/{run_value}" if run_len == 1 else f"(Z/{run_value})^{run_len}"
                )
            run_value, run_len = d, 1
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbelianGroup(0)


def free_group(rank: int) -> FgAbelianGroup:
    return FgAbelianGroup(rank)


def mod2_group(dim: int) -> FgAbelianGroup:
    return FgAbelianGroup(0, (2,) * dim)


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: U * m * V = D.

    D is diagonal with non-negative entries in a divisibility chain; U and V
    are unimodular.  All three properties are verified before returning.
    """
    rows = len(m)
    if rows == 0 or len(m[0]) == 0:
        raise ValueError("empty matrix")
    cols = len(m[0])
    a = [list(map(int, r)) for r in m]
    if any(len(r) != cols for r in a):
        raise ValueError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def add_row(dst: int, src: int, q: int):
        for j in range(cols):
            a[dst][j] += q * a[src][j]
        for j in range(rows):
            u[dst][j] += q * u[src][j]

    def add_col(dst: int, src: int, q: int):
        for i in range(rows):
            a[i][dst] += q * a[i][src]
        for i in range(cols):
            v[i][dst] += q * v[i][src]

    def swap_rows(i: int, j: int):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i: int):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(rows, cols)):
        while True:
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    x = abs(a[i][j])
                    if x and (best is None or x < best):
                        best = x
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if t < rows and t < cols and a[t][t] < 0:
            negate_row(t)

    if abs(int_determinant(u)) != 1 or abs(int_determinant(v)) != 1:
        raise InconsistencyError("Smith transform not unimodular")
    check = _mat_mul(_mat_mul(u, [list(r) for r in m]), v)
    if check != a:
        raise InconsistencyError("Smith decomposition does not multiply back")
    diag = [a[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise InconsistencyError("zero before nonzero on Smith diagonal")
        if x != 0 and y % x != 0:
            raise InconsistencyError("Smith diagonal divisibility broken")
    return a, u, v


def _mat_mul(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    return [
        [sum(p[i][k] * q[k][j] for k in range(len(q))) for j in range(len(q[0]))]
        for i in range(len(p))
    ]


def direct_sum(groups: Iterable[FgAbelianGroup]) -> FgAbelianGroup:
    """Direct sum, with merged torsion renormalized to a divisibility chain."""
    rank = 0
    torsion: list[int] = []
    for g in groups:
        rank += g.rank
        torsion.extend(g.torsion)
    if not torsion:
        return FgAbelianGroup(rank)
    size = len(torsion)
    diag = [[torsion[i] if i == j else 0 for j in range(size)] for i in range(size)]
    d, _, _ = smith_normal_form(diag)
    chain = tuple(d[i][i] for i in range(size) if d[i][i] > 1)
    return FgAbelianGroup(rank, chain)


@dataclass(frozen=True)
class HomologyTable:
    """Degree-indexed groups for one space; missing degrees are trivial."""

    space: str
    coefficients: str
    entries: tuple[tuple[int, FgAbelianGroup], ...]

    def __post_init__(self):
        if self.coefficients not in ("integral", "mod2"):
            raise ValueError(f"bad coefficient tag {self.coefficients!r}")
        degrees = [d for d, _ in self.entries]
        if degrees != sorted(degrees) or len(set(degrees)) != len(degrees):
            raise ValueError("entries must be sorted by distinct degree")
        if any(d < 0 for d in degrees):
            raise ValueError("negative degree")

    def group(self, degree: int) -> FgAbelianGroup:
        for d, g in self.entries:
            if d == degree:
                return g
        return TRIVIAL_GROUP

    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def rank(self, degree: int) -> int:
        return self.group(degree).rank

    def euler_characteristic(self) -> int:
        """Alternating sum of ranks (mod2: of F2 dimensions) over the table."""
        total = 0
        for d, g in self.entries:
            size = g.mod2_dimension() if self.coefficients == "mod2" else g.rank
            total += size if d % 2 == 0 else -size
        return total


def make_table(
    space: str,
    coefficients: str,
    groups: Mapping[int, FgAbelianGroup],
) -> HomologyTable:
    """Build a table, merging nothing and dropping trivial degrees."""
    entries = tuple(
        (d, g) for d, g in sorted(groups.items()) if not g.is_trivial()
    )
    return HomologyTable(space, coefficients, entries)


def _accumulate(groups: dict[int, FgAbelianGroup], degree: int, g: FgAbelianGroup):
    """Add a summand at a degree, merging collisions by direct sum."""
    if g.is_trivial():
        return
    if degree in groups:
        groups[degree] = direct_sum([groups[degree], g])
    else:
        groups[degree] = g


def universal_coefficients_mod2(table: HomologyTable) -> HomologyTable:
    """Mod-2 table derived from an integral one: dim H_d(-;F2) equals
    rank H_d + (even torsion of H_d) + (even torsion of H_{d-1})."""
    if table.coefficients != "integral":
        raise ValueError("universal-coefficient transform needs an integral table")
    degrees = set(table.degrees()) | {d + 1 for d in table.degrees()}
    groups = {}
    for d in sorted(degrees):
        dim = (
            table.group(d).mod2_dimension()
            + table.group(d - 1).two_torsion_count()
        )
        if dim:
            groups[d] = mod2_group(dim)
    return make_table(table.space, "mod2", groups)


def _require(cond: bool, message: str):
    if not cond:
        raise InconsistencyError(message)


def table_B(mu1: int, a: int) -> tuple[HomologyTable, HomologyTable]:
    """Low-degree homology of the ambient tube boundary piece B:
    integral (Z^a, Z^{mu1-a}, Z2, Z in degrees 3,2,1,0) and its mod-2 twin."""
    _require(0 <= a <= mu1, f"need mu1 >= a >= 0, got mu1={mu1} a={a}")
    integral = make_table(
        SPACE_B,
        "integral",
        {
            3: free_group(a),
            2: free_group(mu1 - a),
            1: FgAbelianGroup(0, (2,)),
            0: free_group(1),
        },
    )
    mod2 = make_table(
        SPACE_B,
        "mod2",
        {
            3: mod2_group(a),
            2: mod2_group(1 + mu1 - a),
            1: mod2_group(1),
            0: mod2_group(1),
        },
    )
    return integral, mod2


def table_pair_B_Bu(mu1: int, a: int, n: int) -> dict[str, HomologyTable]:
    """The high-degree ladder around the pair (B, B_u) plus the double cover.

    Keys: "(B,B_u)", "B", "B_u", "B_u_tilde".  The Euler characteristic of the
    cover must equal twice that of B_u; the identity is evaluated in the
    even-n degree regime the ladder was derived in.
    """
    _require(n >= 8, f"pair ladder needs n >= 8, got {n}")
    _require(mu1 - 2 * a + 1 >= 0, f"mu1 - 2a + 1 = {mu1 - 2 * a + 1} < 0")
    _require(2 * mu1 - 3 * a + 1 >= 0, f"2*mu1 - 3a + 1 = {2 * mu1 - 3 * a + 1} < 0")
    _require(mu1 >= a >= 0, f"need mu1 >= a >= 0, got mu1={mu1} a={a}")
    pair = make_table(
        SPACE_PAIR,
        "integral",
        {
            n: free_group(a),
            n - 1: free_group(2 * mu1 - 3 * a + 1),
            n - 3: free_group(1),
        },
    )
    b_high = make_table(
        SPACE_B,
        "integral",
        {
            n - 1: FgAbelianGroup(mu1 - 2 * a + 1, (2,) * a),
            n - 3: FgAbelianGroup(0, (2,)),
        },
    )
    bu = make_table(
        SPACE_BU,
        "integral",
        {
            n - 1: free_group(a),
            n - 2: free_group(mu1 - a),
            n - 3: FgAbelianGroup(0, (2,)),
            n - 4: free_group(1),
        },
    )
    cover = make_table(
        SPACE_BU_COVER,
        "integral",
        {
            3: free_group(a),
            2: free_group(2 * mu1 - 3 * a + 1),
            0: free_group(1),
        },
    )
    chi_bu_even_regime = (
        bu.rank(n - 4) - bu.rank(n - 3) + bu.rank(n - 2) - bu.rank(n - 1)
    )
    _require(
        cover.euler_characteristic() == 2 * chi_bu_even_regime,
        "cover Euler characteristic is not twice the base",
    )
    return {SPACE_PAIR: pair, SPACE_B: b_high, SPACE_BU: bu, SPACE_BU_COVER: cover}


def table_X(mu1: int, a: int, n: int) -> tuple[HomologyTable, HomologyTable]:
    """Homology of the smoothed corank-2 locus piece X (needs a >= 1)."""
    if a == 0:
        raise ValueError("a = 0: X is not defined; use the table_B route")
    _require(n >= 8, f"X table needs n >= 8, got {n}")
    _require(mu1 - 2 * a + 1 >= 0, f"mu1 - 2a + 1 = {mu1 - 2 * a + 1} < 0")
    _require(2 * mu1 - 3 * a + 1 >= 0, f"2*mu1 - 3a + 1 = {2 * mu1 - 3 * a + 1} < 0")
    _require(mu1 >= a, f"need mu1 >= a, got mu1={mu1} a={a}")
    integral = make_table(
        SPACE_X,
        "integral",
        {
            n - 1: free_group(mu1 - 2 * a + 1),
            n - 2: free_group(a),
            2: free_group(mu1 - a),
            0: free_group(1),
        },
    )
    mod2 = make_table(
        SPACE_X,
        "mod2",
        {
            n - 1: mod2_group(mu1 - 2 * a + 1),
            n - 2: mod2_group(a),
            2: mod2_group(mu1 - a),
            0: mod2_group(1),
        },
    )
    return integral, mod2


def table_M(mu0: int, mu1: int, a: int, corank: int, n: int) -> HomologyTable:
    """Homology of the local piece M around the whole singular locus.

    corank >= 2 carries an extra class e (1 exactly at corank 2) and is
    recorded torsion-free in degree n-2; low degrees are deliberately absent
    for corank >= 2.  Lower coranks list their complete tables.
    """
    _require(0 <= corank <= n - 3, f"corank {corank} outside 0..{n - 3}")
    groups: dict[int, FgAbelianGroup] = {}
    if corank >= 2:
        _require(mu1 - 2 * a + 1 >= 0, f"mu1 - 2a + 1 = {mu1 - 2 * a + 1} < 0")
        _require(2 * mu1 - 3 * a + 1 >= 0, f"2*mu1 - 3a + 1 = {2 * mu1 - 3 * a + 1} < 0")
        _require(mu1 >= a, f"need mu1 >= a, got mu1={mu1} a={a}")
        e = 1 if corank == 2 else 0
        top = mu0 + 2 * mu1 - 4 * a + 1 + e
        _require(top >= 0, f"mu0 + 2*mu1 - 4a + 1 + e = {top} < 0")
        _accumulate(groups, n - 1, free_group(top))
        _accumulate(groups, n - 2, free_group(e))
    elif corank == 1:
        _accumulate(groups, n - 1, free_group(2 * mu1 + mu0))
        _accumulate(groups, n - 3, free_group(1))
        _accumulate(groups, 2, free_group(mu0))
        _accumulate(groups, 0, free_group(1))
    else:
        _accumulate(groups, n - 1, free_group(mu0))
        _accumulate(groups, n - 4, free_group(1))
        _accumulate(groups, 0, free_group(1))
    return make_table(SPACE_M, "integral", groups)


def milnor_fibre_homology(
    mu0: int, mu1: int, a: int, corank: int, a1: int, n: int
) -> HomologyTable:
    """Integral homology of the Milnor fibre from the closed-form branches.

    Branch on corank; #A1 Morse points each add one class in degree n-1.
    Consistency with table_M (rank splitting in degrees >= 4) is asserted.
    The closed forms are derived for n >= 5: at n = 4 the fibre of
    f = h*g^2 is two copies of the Milnor fibre of g, which no branch gives.
    """
    for name, value in (("mu0", mu0), ("mu1", mu1), ("a", a), ("a1", a1)):
        _require(value >= 0, f"{name} = {value} < 0")
    _require(n >= 5, f"the fibre tables need n >= 5, got n={n}")
    _require(0 <= corank <= n - 3, f"corank {corank} outside 0..{n - 3}")
    groups: dict[int, FgAbelianGroup] = {}
    if corank >= 3:
        top = mu0 + 2 * mu1 - 4 * a + 1 + a1
        _require(top >= 0, f"mu0 + 2*mu1 - 4a + 1 + #A1 = {top} < 0")
        _accumulate(groups, n - 1, free_group(top))
    elif corank == 2:
        top = mu0 + 2 * mu1 - 4 * a + 2 + a1
        _require(top >= 0, f"mu0 + 2*mu1 - 4a + 2 + #A1 = {top} < 0")
        _accumulate(groups, n - 1, free_group(top))
        _accumulate(groups, n - 2, free_group(1))
    elif corank == 1:
        _accumulate(groups, n - 1, free_group(mu0 + 2 * mu1 + a1))
        _accumulate(groups, n - 3, free_group(1))
    else:
        _accumulate(groups, n - 1, free_group(mu0 + a1))
        _accumulate(groups, n - 4, free_group(1))
    _accumulate(groups, 0, free_group(1))
    fibre = make_table(SPACE_FIBRE, "integral", groups)

    m_table = table_M(mu0, mu1, a, corank, n)
    for d in sorted(set(fibre.degrees()) | set(m_table.degrees())):
        if d < 4:
            continue
        expected = m_table.rank(d) + (a1 if d == n - 1 else 0)
        _require(
            fibre.rank(d) == expected,
            f"fibre/M rank splitting fails in degree {d}: "
            f"{fibre.rank(d)} != {expected}",
        )
    return fibre


@dataclass(frozen=True)
class BouquetDescription:
    """A wedge of spheres: (dimension, count) with distinct sorted dimensions."""

    spheres: tuple[tuple[int, int], ...]

    def __post_init__(self):
        dims = [d for d, _ in self.spheres]
        if dims != sorted(dims) or len(set(dims)) != len(dims):
            raise ValueError("sphere dimensions must be distinct and sorted")
        if any(c <= 0 for _, c in self.spheres):
            raise ValueError("sphere counts must be positive")

    def __str__(self) -> str:
        if not self.spheres:
            return "point"
        bits = []
        for dim, count in sorted(self.spheres, reverse=True):
            bits.extend([f"S^{dim}"] * count)
        return " v ".join(bits)


def bouquet(table: HomologyTable) -> BouquetDescription:
    """Read a wedge-of-spheres description off a fibre homology table.

    Requires a torsion-free table with H_0 = Z; empty means contractible.
    """
    h0 = table.group(0)
    if h0.rank != 1 or h0.torsion:
        raise InconsistencyError(
            f"not a bouquet by this table: H_0 = {h0} is not Z"
        )
    spheres = []
    for d, g in table.entries:
        if d == 0:
            continue
        if not g.is_free():
            raise InconsistencyError(
                f"not a bouquet by this table: torsion {g} in degree {d}"
            )
        if g.rank:
            spheres.append((d, g.rank))
    return BouquetDescription(tuple(spheres))


def dkp_fibre(k: int, p: int, n: int) -> int:
    """Sphere dimension of the fibre of a D(k,p) transversal normal form."""
    if not 0 <= p <= k <= n:
        raise ValueError(f"need 0 <= p <= k <= n, got p={p} k={k} n={n}")
    return n + p - k - 1
