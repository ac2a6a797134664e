"""Built-in regression corpus.

Eighteen cases: the order-k family (k = 1..4) in 5 variables, its k = 3 and
k = 4 members after two sparse linear changes of coordinates, the worked
2-point-D(3,2) example in 5 variables, and the D(3,p) padded normal forms
for p in {0,1,2} and n in {5,6,7}.  Every case runs under several seeds and
under two ring variable orders (given and reversed); the invariants must
agree across all runs and match the frozen expected values.  A deliberate
off-by-one self-test confirms the harness actually detects mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import SingularityInput
from .jobs import Job, run_homology
from .rings import PolyMatrix, Ring, parse_polynomial
from .standard_basis import Budgets, DEFAULT_BUDGETS

DEFAULT_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class CorpusCase:
    name: str
    variables: tuple[str, ...]
    g: tuple[str, ...]
    h: tuple[tuple[str, ...], ...]
    expected: tuple[int, int, int, int]  # (mu0, mu1, a, corank)
    expected_bouquet: str


def _identity_rows(size: int) -> tuple[tuple[str, ...], ...]:
    return tuple(
        tuple("1" if i == j else "0" for j in range(size)) for i in range(size)
    )


def _diag_block_rows(block: tuple[tuple[str, ...], ...], size: int):
    """Pad a leading block to a size x size matrix with identity."""
    b = len(block)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i < b and j < b:
                row.append(block[i][j])
            else:
                row.append("1" if i == j else "0")
        rows.append(tuple(row))
    return tuple(rows)


def _order_k_case(k: int) -> CorpusCase:
    return CorpusCase(
        name=f"order-{k}-family-n5",
        variables=("x1", "x2", "x3", "y1", "y2"),
        g=("y1", "y2"),
        h=(("x3", "x2"), ("x2", f"x1^{k} - x3")),
        expected=(0, 2 * k - 1, k, 2),
        expected_bouquet="S^3",
    )


def _sheared_order_k_case(k: int, sign: int = 1) -> CorpusCase:
    """The order-k germ under x1 -> x2 + y2, x2 -> x1, x3 -> x2 - s*y1,
    y1 -> x3 + 2*s*x2, y2 -> x2 for s = sign; invertible, so the invariants
    stay.  s = -1 gives g = (-2*x2 + x3, x2), whose Milnor chain for
    (g, det H) meets a Mora blow-up at seed 2 in the drawn rows."""
    plus, minus = ("+", "-") if sign > 0 else ("-", "+")
    return CorpusCase(
        name=f"order-{k}-shear-n5" if sign > 0 else f"order-{k}-shear-negated-n5",
        variables=("x1", "x2", "x3", "y1", "y2"),
        g=(f"x3 {plus} 2*x2", "x2"),
        h=((f"x2 {minus} y1", "x1"), ("x1", f"(x2 + y2)^{k} - x2 {plus} y1")),
        expected=(0, 2 * k - 1, k, 2),
        expected_bouquet="S^3",
    )


def _dkp_case(p: int, n: int) -> CorpusCase:
    size = n - 3
    variables = tuple(f"x{i}" for i in range(1, n + 1))
    g = tuple(f"x{i}" for i in range(4, n + 1))
    if p == 0:
        h = _identity_rows(size)
        expected = (0, 0, 0, 0)
    elif p == 1:
        h = _diag_block_rows((("x1",),), size)
        expected = (0, 0, 0, 1)
    else:
        h = _diag_block_rows((("x1", "x2"), ("x2", "x3")), size)
        expected = (0, 1, 1, 2)
    return CorpusCase(
        name=f"d3{p}-normal-form-n{n}",
        variables=variables,
        g=g,
        h=h,
        expected=expected,
        expected_bouquet=f"S^{n + p - 4}",
    )


def builtin_cases() -> tuple[CorpusCase, ...]:
    cases = [_order_k_case(k) for k in (1, 2, 3, 4)]
    cases += [_sheared_order_k_case(k, sign) for sign in (1, -1) for k in (3, 4)]
    cases.append(
        CorpusCase(
            name="two-d32-points-n5",
            variables=("x1", "x2", "x3", "x4", "x5"),
            g=("x1", "x2"),
            h=(("x3", "x4"), ("x4", "x3 - x5^2")),
            expected=(0, 3, 2, 2),
            expected_bouquet="S^3",
        )
    )
    for p in (0, 1, 2):
        for n in (5, 6, 7):
            cases.append(_dkp_case(p, n))
    return tuple(cases)


def build_input(case: CorpusCase, variable_order: str) -> SingularityInput:
    """Construct the case's input under a named ring variable order."""
    if variable_order == "given":
        names = case.variables
    elif variable_order == "reversed":
        names = tuple(reversed(case.variables))
    else:
        raise ValueError(f"unknown variable order {variable_order!r}")
    ring = Ring(names)
    g = tuple(parse_polynomial(t, ring) for t in case.g)
    h = PolyMatrix(
        ring, [[parse_polynomial(e, ring) for e in row] for row in case.h]
    )
    return SingularityInput(ring=ring, g=g, h=h)


@dataclass(frozen=True)
class CaseOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CorpusResult:
    outcomes: tuple[CaseOutcome, ...]

    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def render(self) -> str:
        lines = []
        for o in self.outcomes:
            tag = "pass" if o.passed else "FAIL"
            lines.append(f"[{tag}] {o.name}: {o.detail}")
        good = sum(1 for o in self.outcomes if o.passed)
        lines.append(f"{good} of {len(self.outcomes)} corpus checks passed")
        return "\n".join(lines) + "\n"


def run_case(
    case: CorpusCase,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budgets: Budgets = DEFAULT_BUDGETS,
    expected: tuple[int, int, int, int] | None = None,
) -> CaseOutcome:
    """Run one case under every (seed, variable order) pair and compare."""
    want = expected if expected is not None else case.expected
    runs: list[tuple[str, tuple[int, int, int, int], str]] = []
    try:
        for order in ("given", "reversed"):
            inp = build_input(case, order)
            for seed in seeds:
                report = run_homology(Job(input=inp, seed=seed, budgets=budgets))
                inv = report.invariants
                got = (inv.mu0, inv.mu1, inv.a, inv.corank)
                runs.append((f"{order}/seed{seed}", got, str(report.sphere_bouquet)))
    except Exception as exc:  # noqa: BLE001 - a corpus failure is data, not a crash
        return CaseOutcome(case.name, False, f"raised {type(exc).__name__}: {exc}")
    values = {got for _, got, _ in runs}
    wedges = {w for _, _, w in runs}
    if len(values) > 1 or len(wedges) > 1:
        return CaseOutcome(
            case.name,
            False,
            f"runs disagree: {sorted(values)} / bouquets {sorted(wedges)}",
        )
    got = runs[0][1]
    wedge = runs[0][2]
    if got != want:
        return CaseOutcome(
            case.name,
            False,
            f"(mu0, mu1, a, corank) = {got}, expected {want}",
        )
    if wedge != case.expected_bouquet:
        return CaseOutcome(
            case.name, False, f"bouquet {wedge}, expected {case.expected_bouquet}"
        )
    return CaseOutcome(
        case.name,
        True,
        f"(mu0, mu1, a, corank) = {got}, bouquet {wedge}, "
        f"{len(runs)} runs agree",
    )


def run_corpus(
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> CorpusResult:
    """Run every built-in case, then the harness self-test.

    The self-test reruns the first case against a deliberately wrong mu1
    (off by one) and passes only if the harness reports that named case as
    failed; it guards against a comparison that never fires.
    """
    outcomes = [run_case(case, seeds, budgets) for case in builtin_cases()]
    probe = builtin_cases()[0]
    mu0, mu1, a, corank = probe.expected
    bad = run_case(probe, seeds[:1], budgets, expected=(mu0, mu1 + 1, a, corank))
    caught = (not bad.passed) and probe.name == bad.name
    detail = (
        f"injected mu1 off-by-one on {probe.name} was detected"
        if caught
        else f"injected mu1 off-by-one on {probe.name} was NOT detected"
    )
    outcomes.append(CaseOutcome("harness-self-test", caught, detail))
    return CorpusResult(tuple(outcomes))
