"""Job-file grammar, report assembly, and JSON serialization."""

import dataclasses
import functools
import gc
import importlib.util
import json
import pkgutil
import re
import sys
import traceback
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import milnorfibre
from milnorfibre import decomposition, jobs
from milnorfibre.cli import main
from milnorfibre.corpus import build_input, builtin_cases
from milnorfibre.decomposition import CheckResult, InvariantReport, SingularityInput
from milnorfibre.errors import (
    BudgetExceededError,
    ComputationError,
    InconsistencyError,
    InvalidIcisError,
    ParseError,
)
from milnorfibre.homology import (
    BouquetDescription,
    FgAbelianGroup,
    HomologyTable,
    bouquet,
    make_table,
    mod2_group,
)
from milnorfibre.jobs import Job, Report, collect_tables, parse_job, run_homology, run_invariants
from milnorfibre.rings import PolyMatrix, Ring, parse_matrix, parse_polynomial
from milnorfibre.standard_basis import DEFAULT_BUDGETS, Budgets
from memos import PROCESS_MEMOS, clear_process_memos
from oracles import report_doc, universal_coefficients_mod2
from test_rings import matrix_texts, parse_texts

GOOD_JOB = """\
# the worked two-point example
[ring]
vars = x1 x2 x3 x4 x5

[ideal]
g = x1; x2

[matrix]
h = [[x3, x4], [x4, x3 - x5^2]]

[options]
a1 = zero
f = x3*x1^2 + 2*x4*x1*x2 + x3*x2^2 - x5^2*x2^2
"""


def test_parse_good_job():
    inp = parse_job(GOOD_JOB)
    assert inp.ring.variables == ("x1", "x2", "x3", "x4", "x5")
    assert len(inp.g) == 2
    assert inp.h.rows == 2 and inp.h.is_symmetric()
    assert inp.a1_mode == "assume_zero"
    assert inp.f_expected is not None


def test_parse_tolerates_comments_and_blank_lines():
    text = "\n# leading comment\n\n" + GOOD_JOB + "\n\n# trailing\n"
    assert parse_job(text).ring.variables == ("x1", "x2", "x3", "x4", "x5")


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda t: t.replace("[ring]", "[rings]"), "unknown section"),
        (lambda t: t.replace("vars =", "variables ="), "unknown key"),
        (lambda t: "g = x1\n" + t, "outside any section"),
        (lambda t: t.replace("[ideal]", "[ideal]\ng x1"), "line 6: expected 'key = value'"),
        (lambda t: t.replace("x4 x5", "x4 x1"), "line 3: duplicate variable names"),
        (lambda t: t.replace("g = x1; x2", "g ="), "no generators"),
        (lambda t: t.replace("x3 - x5^2", "x9"), "unknown variable"),
        (
            lambda t: t.replace("[[x3, x4], [x4, x3 - x5^2]]", "[[x3, x4], [x5, x3]]"),
            "symmetric",
        ),
        (
            lambda t: t.replace("[[x3, x4], [x4, x3 - x5^2]]", "[[x3, x4], [x4]]"),
            "ragged",
        ),
        (
            lambda t: t.replace("[[x3, x4], [x4, x3 - x5^2]]", "[[x3, x4], [x4, x3]"),
            "unbalanced",
        ),
        (lambda t: t.replace("a1 = zero", "a1 = maybe"), "a1 must be"),
        (lambda t: t.replace("a1 = zero", "a1 = -2"), "non-negative"),
        (lambda t: t + "\n[ring]\nvars = y\n", "duplicate" ),
        (lambda t: t.replace("g = x1; x2", "g = x1"), "n-3"),
    ],
)
def test_parse_errors(mutation, fragment):
    with pytest.raises(ParseError) as exc:
        parse_job(mutation(GOOD_JOB))
    assert fragment.lower() in str(exc.value).lower()


@pytest.mark.parametrize(
    "h, message",
    [
        ("[[x3, x4], [x4]]", "line 9: in h: ragged matrix rows"),
        ("[[x3, x4], [x4, x3]", "line 9: in h: unbalanced '[' in matrix (at position 0)"),
        ("[[x3, x4], [x4, x3 - x9]]", "line 9: in h: unknown variable 'x9' (at position 21)"),
    ],
)
def test_matrix_errors_name_the_line_and_key(h, message):
    with pytest.raises(ParseError) as exc:
        parse_job(GOOD_JOB.replace("[[x3, x4], [x4, x3 - x5^2]]", h))
    assert str(exc.value) == message


def test_missing_required_key():
    text = "[ring]\nvars = x1 x2 x3 x4\n[ideal]\ng = x4\n"
    with pytest.raises(ParseError) as exc:
        parse_job(text)
    assert "h" in str(exc.value)


def test_a1_integer_mode():
    text = GOOD_JOB.replace("a1 = zero", "a1 = 3")
    inp = parse_job(text)
    assert inp.a1_mode == "provided" and inp.a1_count == 3


@pytest.mark.parametrize("seed", [True, False, 1.0])
def test_job_refuses_a_seed_that_is_no_int(seed):
    """The report writes the seed in place, so a bool would give "seed":
    True, which json.loads rejects."""
    with pytest.raises(ValueError, match="seed must be an int"):
        Job(input=parse_job(GOOD_JOB), seed=seed)


def test_job_and_report_stay_frozen_dataclasses():
    """Job and Report set their slots in __init__ and refuse assignment;
    dataclasses.replace builds through the same __init__, seed check
    included."""
    job = Job(parse_job(GOOD_JOB), 3)
    assert (job.seed, job.budgets) == (3, DEFAULT_BUDGETS)
    assert dataclasses.replace(job, seed=4) == Job(input=job.input, seed=4)
    with pytest.raises(ValueError, match="seed must be an int"):
        dataclasses.replace(job, seed=True)
    report = run_homology(job)
    moved = dataclasses.replace(report, seed=5)
    assert moved.seed == 5 and moved.invariants is report.invariants
    assert dataclasses.replace(moved, seed=report.seed) == report
    for obj, name in ((job, "seed"), (report, "seed")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0)


@pytest.mark.parametrize("count", [True, 2.5])
def test_provided_a1_count_that_is_no_int_is_refused(count):
    """A provided #A1 of another type than int gave "a1": True in the JSON,
    or "a1": 2.5 and a bare TypeError from the bouquet."""
    inp = parse_job(GOOD_JOB)
    with pytest.raises(ValueError, match="a1_count must be an int"):
        dataclasses.replace(inp, a1_mode="provided", a1_count=count)
    report = run_homology(Job(input=dataclasses.replace(inp, a1_mode="provided", a1_count=1)))
    assert json.loads(report.to_json())["invariants"]["a1"] == 1


def test_wrong_f_is_a_run_stage_inconsistency():
    text = GOOD_JOB.replace(
        "f = x3*x1^2 + 2*x4*x1*x2 + x3*x2^2 - x5^2*x2^2",
        "f = x3*x1^2",
    )
    inp = parse_job(text)  # parse succeeds
    with pytest.raises(InconsistencyError):
        run_invariants(Job(input=inp))


def test_invariants_report_shape():
    report = run_invariants(Job(input=parse_job(GOOD_JOB)))
    inv = report.invariants
    assert (inv.mu0, inv.mu1, inv.a, inv.corank) == (0, 3, 2, 2)
    doc = json.loads(report.to_json())
    assert list(doc) == ["invariants", "homology", "bouquet", "checks", "provenance"]
    assert doc["homology"] is None and doc["bouquet"] is None
    assert doc["invariants"]["a1_provenance"] == "assumed"
    assert all(c["pass"] for c in doc["checks"])


def test_homology_report_shape():
    report = run_homology(Job(input=parse_job(GOOD_JOB), seed=2))
    doc = json.loads(report.to_json())
    assert doc["homology"] == {
        "0": {"rank": 1, "torsion": []},
        "3": {"rank": 1, "torsion": []},
    }
    assert doc["bouquet"] == [{"dim": 3, "count": 1}]
    assert doc["checks"][-1]["detail"] == (
        "fibre table is torsion-free with H_0 = Z; bouquet S^3"
    )
    assert doc["provenance"]["seed"] == 2
    table_names = list(doc["provenance"]["tables"])
    assert table_names == [
        "B_low",
        "B_low_mod2",
        "(B,B_u)",
        "B_high",
        "B_u",
        "B_u_tilde",
        "X",
        "X_mod2",
        "M",
    ]
    assert any("reference dimension" in note for note in doc["provenance"]["notes"])


def test_json_is_byte_identical_for_fixed_job_and_seed():
    job = Job(input=parse_job(GOOD_JOB), seed=1)
    first = run_homology(job).to_json()
    second = run_homology(job).to_json()
    assert first == second
    assert json.loads(first)  # well-formed


def test_text_report_mentions_key_facts():
    text = run_homology(Job(input=parse_job(GOOD_JOB))).to_text()
    assert "mu1      3" in text
    assert "bouquet: S^3" in text
    assert "elapsed" in text
    assert "[pass]" in text and "FAIL" not in text


def test_text_report_renders_an_empty_table_as_trivial():
    """A table with no group in any degree reads "trivial", as the fibre
    and as an intermediate table."""
    report = run_homology(Job(input=parse_job(GOOD_JOB)))
    empty = HomologyTable("E", "mod2", ())
    text = dataclasses.replace(report, fibre=empty, sphere_bouquet=None, tables=(("E", empty),)).to_text()
    assert "Milnor fibre homology (integral)\n  trivial\n\nintermediate tables\n" in text
    assert "\n  E (mod2)\n    trivial\n\nchecks\n" in text


def test_corank_zero_job_reports_fibre_only_tables():
    text = """\
[ring]
vars = x1 x2 x3 x4 x5 x6
[ideal]
g = x4; x5; x6
[matrix]
h = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
"""
    report = run_homology(Job(input=parse_job(text)))
    assert report.invariants.corank == 0
    assert str(report.sphere_bouquet) == "S^2"
    names = [name for name, _ in report.tables]
    assert names == ["M"]


N4_JOB = """\
[ring]
vars = x1 x2 x3 x4
[ideal]
g = x1^2 + x2^2 + x3^2 + x4^2
[matrix]
h = [[1]]
"""


def test_n4_job_has_invariants_but_no_fibre_table():
    """At n = 4 the fibre of f = h*g^2 is two copies of the Milnor fibre of g
    (here H_0 = H_3 = Z^2), which the n >= 5 closed forms do not give:
    homology is refused, invariants are not."""
    job = Job(input=parse_job(N4_JOB))
    inv = run_invariants(job).invariants
    assert (inv.n, inv.mu0, inv.corank) == (4, 1, 0)
    with pytest.raises(InconsistencyError, match="need n >= 5, got n=4"):
        run_homology(job)


# corank 1 at n = 4, where H is 1 x 1
N4_CORANK1_JOB = """\
[ring]
vars = x1 x2 x3 x4
[ideal]
g = x4
[matrix]
h = [[x1]]
"""


def test_n4_corank_one_job_takes_a_from_the_empty_minor(monkeypatch):
    """compute_a gets the one 0 x 0 minor of the scalar H, 1, over the ring
    of x1, x2, x3, the variables g = x4 leaves free, and the unit rule
    gives a = 0."""
    seen = []
    compute_a = decomposition.compute_a

    def recording(inp, h_minors, budgets):
        seen.append(h_minors)
        return compute_a(inp, h_minors, budgets)

    monkeypatch.setattr(decomposition, "compute_a", recording)
    inp = parse_job(N4_CORANK1_JOB)
    report = run_invariants(Job(input=inp))
    inv = report.invariants
    assert (inv.n, inv.corank, inv.a) == (4, 1, 0)
    assert seen == [(Ring(("x1", "x2", "x3")).one(),)]
    assert {c.name: c.detail for c in report.checks}["a_finite"] == "a = 0"


def test_tables_verb_reports_like_the_homology_job(capsys):
    """tables on the worked job's invariants gives the job's fibre, tables
    and bouquet, and its checks after the invariant checks, the bouquet's
    included; its own note comes before the tables' notes."""
    job = run_homology(Job(input=parse_job(GOOD_JOB)))
    inv = job.invariants
    assert (inv.mu0, inv.mu1, inv.a, inv.corank, inv.n) == (0, 3, 2, 2, 5)
    args = ["--mu0", "0", "--mu1", "3", "--a", "2", "--corank", "2", "--n", "5"]
    assert main(["--format", "json", "tables", *args]) == 0
    doc, expected = json.loads(capsys.readouterr().out), report_doc(job)
    invariant_checks = {c.name for c in inv.checks}
    names = [c["name"] for c in doc["checks"]]
    assert names == [c.name for c in job.checks if c.name not in invariant_checks]
    assert "bouquet_torsion_free" in names
    assert doc["bouquet"] == expected["bouquet"]
    assert doc["homology"] == expected["homology"]
    assert doc["provenance"]["tables"] == expected["provenance"]["tables"]
    table_notes = [n for n in job.notes if n not in jobs._invariant_notes(inv)]
    assert doc["provenance"]["notes"] == ["tables generated from provided invariants"] + table_notes


def test_homology_job_builds_the_m_table_once(monkeypatch):
    """milnor_fibre_homology builds M for its rank-split check and hands it
    to collect_tables, which reports it.  Every module attribute that holds
    table_M is counted."""
    from milnorfibre import homology

    calls = []
    table_m = homology.table_M
    for name, module in list(sys.modules.items()):
        if name.startswith("milnorfibre") and getattr(module, "table_M", None) is table_m:
            monkeypatch.setattr(
                module, "table_M", lambda *args: calls.append(args) or table_m(*args)
            )
    report = run_homology(Job(input=parse_job(GOOD_JOB)))
    assert len(calls) == 1
    assert dict(report.tables)["M"] == table_m(*calls[0])


# --- the JSON writer against json.dumps --------------------------------------
# json.dumps(report_doc(report), indent=2) + "\n" is the oracle of
# Report.to_json, with report_doc the report's document as a dict.

def json_oracle(report):
    return json.dumps(report_doc(report), indent=2) + "\n"


def bare(report):
    """The report as run_invariants gives it: no fibre, tables or bouquet."""
    return dataclasses.replace(report, fibre=None, tables=(), sphere_bouquet=None)


def test_json_writer_matches_json_dumps_on_every_corpus_report():
    for case in builtin_cases():
        report = run_homology(Job(input=build_input(case, "given")))
        for r in (report, bare(report)):
            assert r.to_json() == json_oracle(r), case.name


# any text: escapes, control characters, lone surrogates, non-ASCII
texts = st.text(st.characters(exclude_categories=()), max_size=12)


@st.composite
def admissible_invariants(draw):
    """(mu0, mu1, a, corank, a1, n) that collect_tables accepts: at corank
    >= 2, a >= 1 under the rank guards with the top ranks of M and the
    fibre non-negative; at corank 1, a = 0; at corank 0, a = mu1 = 0."""
    n = draw(st.integers(5, 10))
    corank = draw(st.sampled_from([0, 1, *range(2, n - 2)]))
    a1 = draw(st.integers(0, 3))
    if corank == 0:
        return draw(st.integers(0, 12)), 0, 0, corank, a1, n
    if corank == 1:
        return draw(st.integers(0, 12)), draw(st.integers(0, 12)), 0, corank, a1, n
    a = draw(st.integers(1, 6))
    mu1 = 2 * a - 1 + draw(st.integers(0, 6))
    e = 1 if corank == 2 else 0
    mu0 = max(0, 4 * a - 2 * mu1 - 1 - e) + draw(st.integers(0, 6))
    return mu0, mu1, a, corank, a1, n


@st.composite
def drawn_reports(draw):
    """A homology report through collect_tables, with drawn notes and check
    details, or its bare form; now and then with no checks or an empty
    bouquet."""
    mu0, mu1, a, corank, a1, n = draw(admissible_invariants())
    fibre, tables, table_checks, notes = collect_tables(mu0, mu1, a, corank, a1, n)
    drawn_checks = draw(st.lists(st.builds(CheckResult, texts, st.booleans(), texts), max_size=3))
    inv = InvariantReport(
        n=n,
        mu0=mu0,
        mu1=mu1,
        mu1_applicable=corank != 0,
        a=a,
        corank=corank,
        a1=a1,
        a1_provenance=draw(st.sampled_from(["assumed", "provided", "experimental-saturation"]) | texts),
    )
    checks = tuple(table_checks) + tuple(drawn_checks)
    report = Report(
        invariants=inv,
        fibre=fibre,
        tables=tuple(tables),
        sphere_bouquet=draw(st.sampled_from([bouquet(fibre), BouquetDescription(())])),
        checks=checks if draw(st.booleans()) else (),
        notes=tuple(notes) + tuple(draw(st.lists(texts, max_size=3))),
        seed=draw(st.integers() | st.integers(-(10**300), 10**300)),
        elapsed=0.0,
    )
    return bare(report) if draw(st.booleans()) else report


@given(drawn_reports())
@example(
    Report(
        invariants=InvariantReport(5, 0, 0, False, 0, 0, 0, "é\n\"\\\t\u2028\x00\x7f\ud800😀"),
        fibre=None,
        tables=(),
        sphere_bouquet=None,
        checks=(CheckResult("ключ\x1f", False, "\ufeff"),),
        notes=("",),
        seed=-(2**200),
        elapsed=0.0,
    )
)
def test_json_writer_matches_json_dumps_on_drawn_reports(report):
    assert report.to_json() == json_oracle(report)


@pytest.mark.parametrize(
    "doc",
    [1.0, float("nan"), (1, 2), {"a": [1, 2.5]}, {1: "a"}, {"a": {"b": {1, 2}}}, b"x", [object()]],
)
def test_json_writer_refuses_other_types(doc):
    """A value that is not a str where the report's shape has a string, a
    note or a check detail, raises TypeError from the escaping rather than
    give a text json.dumps would not."""
    report = run_invariants(Job(input=parse_job(GOOD_JOB)))
    for wrong in (
        dataclasses.replace(report, notes=(doc,)),
        dataclasses.replace(report, checks=(CheckResult("c", True, doc),)),
    ):
        with pytest.raises(TypeError):
            wrong.to_json()


# --- the tables' universal-coefficient check ---------------------------------

def _wrong_twin(table, change):
    groups = dict(table.entries)
    groups.update(change)
    return make_table(table.space, "mod2", groups)


@pytest.mark.parametrize(
    "space, change, message",
    [
        ("B", {2: mod2_group(3)}, "for B in degree 2: (Z/2)^2 vs (Z/2)^3"),
        ("B", {0: mod2_group(0)}, "for B in degree 0: Z/2 vs 0"),
        ("B", {4: mod2_group(1)}, "for B in degree 4: 0 vs Z/2"),
        ("X", {0: mod2_group(2)}, "for X in degree 0: Z/2 vs (Z/2)^2"),
        ("X", {7: mod2_group(9)}, "for X in degree 7: 0 vs (Z/2)^9"),
    ],
)
def test_wrong_mod2_twin_is_an_inconsistency(monkeypatch, space, change, message):
    """collect_tables checks each stated mod-2 twin against the universal
    coefficients of its integral table: a twin changed in one degree, made
    trivial there or given a degree the integral table does not reach
    raises the first mismatching degree."""
    name = {"B": "table_B", "X": "table_X"}[space]
    table = getattr(jobs, name)
    monkeypatch.setattr(
        jobs, name, lambda *args: (lambda i, m: (i, _wrong_twin(m, change)))(*table(*args))
    )
    with pytest.raises(InconsistencyError) as exc:
        collect_tables(0, 3, 2, 2, 0, 8)
    assert str(exc.value) == f"universal-coefficient mismatch {message}"


# torsion chains with odd and even factors
groups = st.builds(
    FgAbelianGroup,
    st.integers(0, 3),
    st.sampled_from([(), (2,), (3,), (2, 2), (2, 4), (3, 6), (3, 3, 9), (2, 6, 12)]),
)
integral_tables = st.dictionaries(st.integers(0, 6), groups, max_size=5).map(
    lambda g: make_table("S", "integral", g)
)
mod2_tables = st.dictionaries(st.integers(0, 7), st.integers(0, 4).map(mod2_group), max_size=5).map(
    lambda g: make_table("S", "mod2", g)
)


@given(integral_tables, st.none() | mod2_tables)
def test_uc_check_agrees_with_the_derived_table(integral, stated):
    """The check compares degree by degree without building the derived
    table: it passes on the table universal_coefficients_mod2 derives and
    names the first degree where any other stated table differs from it."""
    derived = universal_coefficients_mod2(integral)
    assert jobs._uc_mod2_check("S", integral, derived).passed
    if stated is None or stated == derived:
        return
    d = min(d for d in set(stated.degrees()) | set(derived.degrees()) if stated.group(d) != derived.group(d))
    with pytest.raises(InconsistencyError) as exc:
        jobs._uc_mod2_check("S", integral, stated)
    assert str(exc.value) == (
        f"universal-coefficient mismatch for S in degree {d}: {derived.group(d)} vs {stated.group(d)}"
    )


# --- work a process shares across jobs ----------------------------------------
# One text parses to one input, which keeps its seed-free invariants; the
# seed-free steps of one restricted germ run once; and the tables of one
# invariant tuple are built once.  The autouse fixture of conftest.py starts
# every test with the memos of jobs.py and decomposition.py empty.

# the curved job of test_cli.py's budget test: g is linear, so the seed is
# never read; its #A1 estimate saturates, which does not fit in 10 reductions
CURVED_JOB = """\
[ring]
vars = x1 x2 x3 y1 y2
[ideal]
g = y1; y2
[matrix]
h = [[x3 + y1^2, x2], [x2, x1 - x3]]
[options]
a1 = estimate
"""

# g = (y1, h) with h Brieskorn-Pham of exponents (2, 3, 4, 5), so the locus
# keeps a nonlinear generator and milnor_icis reads the seed:
# (mu0, mu1, a, corank) = (1*2*3*4, 2*3*4, 0, 1)
SINGULAR_LOCUS_JOB = """\
[ring]
vars = x1 x2 x3 y1 y2
[ideal]
g = y1; x1^2 + x2^3 + x3^4 + y2^5
[matrix]
h = [[x1, 0], [0, 1]]
"""

# a must-fail germ of the benchmark's small batch: det H = x1^2 makes the
# (g, det H) scheme non-reduced along a surface
NON_ISOLATED_JOB = """\
[ring]
vars = x1 x2 x3 y1 y2
[ideal]
g = y1; x1^2 + x2^2 + x3^2 + y2^2
[matrix]
h = [[x1^2, 0], [0, 1]]
"""


@pytest.mark.parametrize("tight_first", [False, True])
def test_the_budgets_are_part_of_the_invariants_key(tight_first):
    """A report kept under the default budgets does not serve a job under
    10 reductions, and a budget error kept under 10 reductions does not
    fail a job under the default budgets."""
    inp = parse_job(CURVED_JOB)
    tight = Budgets(reductions=10)
    order = (tight, DEFAULT_BUDGETS) if tight_first else (DEFAULT_BUDGETS, tight)
    for budgets in order + order:
        job = Job(input=parse_job(CURVED_JOB), seed=3, budgets=budgets)
        assert job.input is inp
        if budgets == tight:
            with pytest.raises(BudgetExceededError):
                run_homology(job)
        else:
            assert run_homology(job).invariants.a1 == 0
    assert inp._outcomes.keys() == {tight, DEFAULT_BUDGETS}


def test_an_input_that_reads_the_seed_is_computed_for_each_seed(monkeypatch):
    """milnor_icis runs for every seed, and the locus and (g, det H)
    checks, which read no seed, run for the first job only: the later jobs
    take them from its restricted stage."""
    calls = []
    milnor_icis = decomposition.milnor_icis
    monkeypatch.setattr(
        decomposition,
        "milnor_icis",
        lambda locus, seed, budgets: calls.append(seed) or milnor_icis(locus, seed, budgets),
    )
    checked = []
    check_icis = decomposition.check_icis
    monkeypatch.setattr(
        decomposition,
        "check_icis",
        lambda gens, *args: checked.append(len(gens)) or check_icis(gens, *args),
    )
    inp = parse_job(SINGULAR_LOCUS_JOB)
    for seed in (0, 1, 2, 0):
        inv = run_homology(Job(input=inp, seed=seed)).invariants
        assert (inv.mu0, inv.mu1, inv.a, inv.corank) == (24, 24, 0, 1)
    assert calls == [0, 1, 2, 0]
    assert checked == [1, 2]
    assert inp._outcomes == {}


def _cold_json(text, seed=0):
    """The report JSON of one job run with every memo of the process empty."""
    clear_process_memos()
    return run_homology(Job(input=parse_job(text), seed=seed)).to_json()


def _job_text(g, h):
    return f"[ring]\nvars = x1 x2 x3 y1 y2\n[ideal]\ng = {g}\n[matrix]\nh = {h}\n"


# three presentations of one germ: each g spans (y1, y2), so each job
# restricts to the same H in x1, x2, x3, with no generator of g left
SHARED_H = "[[x3, x2], [x2, x1^2 - x3]]"
SHARED_TEXTS = [_job_text(g, SHARED_H) for g in ("y1; y2", "3*y1; -y2", "y1 + y2; y2")]


def test_presentations_of_one_restricted_germ_share_its_stage(monkeypatch):
    """Across three texts of one restricted germ the (g, det H) check, the
    minors pass over H and the colength of a run once, and each job's JSON
    is the one it gets with every memo empty."""
    cold = [_cold_json(text) for text in SHARED_TEXTS]
    clear_process_memos()
    counts = dict.fromkeys(("check_icis", "determinant_and_minors", "compute_a"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(decomposition, name, counting(name, getattr(decomposition, name)))
    warm = [run_homology(Job(input=parse_job(text))).to_json() for text in SHARED_TEXTS]
    assert counts == dict.fromkeys(counts, 1)
    assert warm == cold
    assert decomposition._restricted_stage.cache_info()[:2] == (2, 1)


@pytest.mark.parametrize("zero_first", [False, True])
def test_a_det_h_in_the_locus_and_a_zero_det_h_keep_their_own_errors(zero_first):
    """H = [[y1, 0], [0, 1]] and H = [[0, 0], [0, 1]] restrict to one germ,
    whose det H is zero.  In all five variables the first det H is y1, a
    nonzero member of (g), and its (g, det H) check fails; the second is
    zero.  Whichever job comes first, each raises its own error."""
    in_locus = _job_text("y1; y2", "[[y1, 0], [0, 1]]")
    zero = _job_text("y1; y2", "[[0, 0], [0, 1]]")
    texts = [zero, in_locus] if zero_first else [in_locus, zero]
    for text in texts:
        if text == in_locus:
            with pytest.raises(ComputationError) as caught:
                run_homology(Job(input=parse_job(text)))
            assert type(caught.value) is ComputationError
            assert str(caught.value).startswith("finite-codimension surrogate failed: ")
        else:
            with pytest.raises(InvalidIcisError, match=r"^det H vanishes identically, "):
                run_homology(Job(input=parse_job(text)))
    assert decomposition._restricted_stage.cache_info()[:2] == (1, 1)


def test_the_budgets_are_part_of_the_restricted_stage_key():
    """Two texts of one restricted germ under 4 reductions and the default
    budgets, alternately: the top colength trips under 4 reductions, after
    mu0, and the budget error kept for the germ fails no default job, nor
    does the default stage serve a tight one."""
    texts = [SINGULAR_LOCUS_JOB, SINGULAR_LOCUS_JOB.replace("g = y1;", "g = 2*y1;")]
    tight = Budgets(reductions=4)
    for text, budgets in zip(texts + texts[::-1], (tight, DEFAULT_BUDGETS) * 2):
        job = Job(input=parse_job(text), seed=1, budgets=budgets)
        if budgets == tight:
            with pytest.raises(BudgetExceededError, match=r"^reduction budget exhausted \(4\)"):
                run_homology(job)
        else:
            inv = run_homology(job).invariants
            assert (inv.mu0, inv.mu1, inv.a, inv.corank) == (24, 24, 0, 1)
    assert decomposition._restricted_stage.cache_info()[:2] == (2, 2)


def test_the_restricted_stage_holds_no_reference_to_an_input_or_report():
    """Once the job's report and input are dropped and the parsed texts and
    kept tables cleared, reference counting alone frees both, while the
    restricted stage stays kept."""
    gc.disable()
    try:
        inp = parse_job(SINGULAR_LOCUS_JOB)
        report = run_homology(Job(input=inp, seed=1))
        assert report.to_json() == json_oracle(report)
        refs = weakref.ref(inp), weakref.ref(report.invariants)
        del inp, report
        jobs._parse_job.cache_clear()
        jobs._tables.cache_clear()
        assert [ref() for ref in refs] == [None, None]
        assert decomposition._restricted_stage.cache_info().currsize == 1
    finally:
        gc.enable()


# two generators that are not linear, so the restriction keeps both
TWO_CURVED_JOB = _job_text("y1 + x1^2; y2 - x2^3", "[[x3, x2], [x2, x1 - x3]]")
STAGE_TEXTS = (SINGULAR_LOCUS_JOB, NON_ISOLATED_JOB, CURVED_JOB, TWO_CURVED_JOB)
FACTORS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 5), Fraction(7, 3)))


def _stage_outcome(stage):
    """What a _Stage decides, its locus check's generators and minors left
    out: those are the germ's own, which differ by constant factors."""
    locus = stage.locus and (
        stage.locus.ok,
        stage.locus.colength,
        stage.locus.unbounded_variables,
        [[columns for columns, _ in level] for level in stage.locus.levels],
    )
    return locus, stage.corank, stage.det_zero, stage.checks, stage.a, stage.top, stage.failure


@given(
    text=st.sampled_from(STAGE_TEXTS),
    h_factor=FACTORS,
    g_factors=st.tuples(FACTORS, FACTORS),
    tight=st.booleans(),
    flips=st.integers(0, 31),
)
# a budget trip after mu0, an INFINITE (g, det H) check and a Fraction factor
@example(text=SINGULAR_LOCUS_JOB, h_factor=1, g_factors=(-3, 1), tight=True, flips=0)
@example(text=NON_ISOLATED_JOB, h_factor=Fraction(1, 2), g_factors=(1, 1), tight=False, flips=0)
@example(text=TWO_CURVED_JOB, h_factor=Fraction(-3, 7), g_factors=(Fraction(2, 5), 3), tight=False, flips=0)
# x2 and y1 negated: x2 in H and in both generators left, y1 in the first only
@example(text=TWO_CURVED_JOB, h_factor=-1, g_factors=(1, Fraction(-2, 5)), tight=False, flips=0b01010)
def test_a_restricted_stage_is_blind_to_constant_factors(text, h_factor, g_factors, tight, flips):
    """The stage of a restricted germ, computed afresh, is that of the germ
    with the variables of bit i of flips negated, x_i -> -x_i, and H and
    each generator scaled by nonzero rationals: the same values, check
    texts and failure point, type and args.  Under 4 reductions a stage
    trips wherever its first colength needs more."""
    budgets = Budgets(reductions=4) if tight else DEFAULT_BUDGETS
    germ, *_ = decomposition._restrict(parse_job(text))
    ring = germ.ring
    negated = {v: -ring.variable(v) for i, v in enumerate(ring.variables) if flips >> i & 1}
    scaled = decomposition._RestrictedGerm(
        ring,
        tuple(q.substitute(negated).scale(c) for q, c in zip(germ.g, g_factors)),
        PolyMatrix(ring, [[q.substitute(negated).scale(h_factor) for q in row] for row in germ.h.entries()]),
    )
    outcomes = []
    for each in (germ, scaled):
        clear_process_memos()
        outcomes.append(_stage_outcome(decomposition._restricted_stage(each, budgets)))
    assert outcomes[0] == outcomes[1]


def test_a_restricted_stage_reaches_each_failure_point():
    """The examples of the property above reach a budget trip at the top
    colength, a failed (g, det H) check with an INFINITE colength, and no
    failure."""
    failures = []
    for text, budgets in (
        (SINGULAR_LOCUS_JOB, Budgets(reductions=4)),
        (NON_ISOLATED_JOB, DEFAULT_BUDGETS),
        (TWO_CURVED_JOB, DEFAULT_BUDGETS),
    ):
        germ, *_ = decomposition._restrict(parse_job(text))
        failures.append(decomposition._restricted_stage(germ, budgets).failure)
    (top, tripped, _), (surrogate, failed, args), passed = failures
    assert (top, tripped, surrogate, failed) == (
        decomposition._TOP,
        BudgetExceededError,
        decomposition._SURROGATE,
        ComputationError,
    )
    assert "INFINITE" in args[0] and passed is None


def _negated(text, variable):
    """A job text with variable -> -variable in g and H."""
    return "\n".join(
        line if line.startswith("vars") else re.sub(rf"\b{variable}\b", f"(-{variable})", line)
        for line in text.split("\n")
    )


@pytest.mark.parametrize(
    "first, second, power, flip",
    [
        pytest.param(first, second, power, flip, id=f"{first}-{second}{suffix}")
        for power, flip, suffix in ((2, False, ""), (2, True, "-x1"), (3, True, "-x1^3"))
        for first, second in (("-3", "2/5"), ("2/5", "-3"))
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mu0_reads_the_job_own_generators_from_a_shared_stage(monkeypatch, first, second, power, flip, seed):
    """SINGULAR_LOCUS_JOB with g2 scaled by -3 and by 2/5 restricts to one
    unit-free germ.  After a job of one scaling has kept its stage, a job of
    the other takes the stage, hands milnor_icis its own restricted g2, and
    writes its cold JSON.  With flip, the second job has x1 negated, which
    H's restriction [[x1, 0], [0, 1]] determines: its entry flips x1 back,
    so the job hands milnor_icis its g2 under that flip, the g2 of the text
    without it.  With x1^3 in place of x1^2 the flip moves g2 too."""
    h2 = f"x1^{power} + x2^3 + x3^4 + y2^5"
    base = SINGULAR_LOCUS_JOB.replace("x1^2", f"x1^{power}")
    texts = {c: base.replace(h2, f"{c}*({h2})") for c in (first, second)}
    if flip:
        texts[second] = _negated(texts[second], "x1")
    cold = _cold_json(texts[second], seed)
    handed = []
    milnor_icis = decomposition.milnor_icis
    monkeypatch.setattr(
        decomposition,
        "milnor_icis",
        lambda locus, *args: handed.append(locus.gens) or milnor_icis(locus, *args),
    )
    clear_process_memos()
    run_homology(Job(input=parse_job(texts[first]), seed=seed))
    handed.clear()
    assert run_homology(Job(input=parse_job(texts[second]), seed=seed)).to_json() == cold
    # the job's g2 under its entry's flips: the g2 of the text without x1 negated
    own = parse_polynomial(f"{second}*({h2})", Ring(("x1", "x2", "x3", "y2")))
    assert handed == [(own,)]
    assert decomposition._restricted_stage.cache_info()[:2] == (1, 1)


def test_every_sign_pattern_of_a_heavy_germ_shares_one_stage(monkeypatch):
    """Every sign pattern x_i -> -x_i of the benchmark's D(3,2) germ at
    n = 7 and of its fixed heavy shear, run warm in turn, gives the JSON it
    gets with every memo empty, and each germ misses _restricted_stage
    once: g restricts to no generator, and the patterns' restricted H,
    each under its sign flips, are one."""
    workloads = _workloads(monkeypatch)
    for germ in (workloads.dkp(2, 7), workloads._HEAVY_SHEAR):
        patterns = range(2 ** len(workloads.occurring(germ)))
        texts = [workloads.job_text(workloads.sign_change(germ, pattern)) for pattern in patterns]
        cold = [_cold_json(text) for text in texts]
        clear_process_memos()
        assert [run_homology(Job(input=parse_job(text))).to_json() for text in texts] == cold
        assert decomposition._restricted_stage.cache_info()[:2] == (len(texts) - 1, 1)


def test_g_of_one_linear_span_share_one_restricted_h():
    """y1; y2, (-y1); 3*y2 and y1 + y2; y2 span one space, so their jobs
    share one restricted H entry and ring, with the H each restricts to
    with every memo empty; y1; y2 + x1 spans another and does not.  The
    first two have one tuple of unit-free generators, so they share one
    substitution."""
    texts = [_job_text(g, SHARED_H) for g in ("y1; y2", "(-y1); 3*y2", "y1 + y2; y2")]
    other = _job_text("y1; y2 + x1", SHARED_H)
    cold = []
    for text in texts + [other]:
        clear_process_memos()
        cold.append(decomposition._restrict(parse_job(text))[0])
    clear_process_memos()
    restrictions = [decomposition._restrict(parse_job(text)) for text in texts + [other]]
    warm = [germ for germ, _, _ in restrictions]
    entries = [entry for _, _, entry in restrictions]
    assert warm == cold
    assert all(entry.h is germ.h for germ, entry in zip(warm, entries))
    first = warm[0]
    assert all(entry is entries[0] and germ.ring is first.ring for germ, entry in zip(warm[1:3], entries[1:3]))
    assert entries[3] is not entries[0] and warm[3].h is not first.h
    assert warm[3].ring.variables == ("x2", "x3", "y2")
    assert decomposition._substitution.cache_info()[:2] == (1, 3)
    assert decomposition._substitution.cache_info().currsize == 3
    assert decomposition._restricted_h.cache_info()[:2] == (2, 2)


@given(
    text=st.sampled_from(STAGE_TEXTS + (SHARED_TEXTS[2], GOOD_JOB)),
    g_factors=st.tuples(FACTORS, FACTORS),
    h_factor=FACTORS,
)
@example(text=SHARED_TEXTS[2], g_factors=(-1, Fraction(2, 5)), h_factor=Fraction(-7, 3))
@example(text=CURVED_JOB, g_factors=(Fraction(1, 2), -3), h_factor=-1)
def test_a_restriction_is_shared_across_constant_factors(text, g_factors, h_factor):
    """With each generator of g scaled by a nonzero rational, negated or a
    Fraction, and H by another, the restriction taken after the unscaled
    input's is kept is the restriction with every memo empty: the same
    germ and the same restricted g of the input itself, and an entry that
    holds the germ's H.  It takes the kept substitution and restricted H
    entry."""
    base = parse_job(text)
    scaled = SingularityInput(
        base.ring,
        tuple(q.scale(c) for q, c in zip(base.g, g_factors)),
        PolyMatrix(base.ring, [[q.scale(h_factor) for q in row] for row in base.h.entries()]),
    )
    clear_process_memos()
    cold = decomposition._restrict(scaled)
    clear_process_memos()
    kept = decomposition._restrict(base)[2]
    germ, gens, entry = decomposition._restrict(scaled)
    assert (germ, gens) == cold[:2]
    assert entry is kept and entry.h is germ.h
    assert decomposition._substitution.cache_info()[:2] == (1, 1)
    assert decomposition._restricted_h.cache_info()[:2] == (1, 1)


def test_a_fibre_verdict_is_decided_only_for_an_estimate(monkeypatch):
    """Jobs with a1 assumed zero or provided, and a _restricted_h miss,
    never decide a #A1 fibre verdict: with _fibre_finite refused they give
    their cold JSON and leave the entry undecided.  The first estimate job
    of the germ decides it, and the other presentations read it."""
    options = {"assume_zero": "", "2": "[options]\na1 = 2\n", "estimate": "[options]\na1 = estimate\n"}
    texts = {mode: [text + option for text in SHARED_TEXTS] for mode, option in options.items()}
    cold = {mode: [_cold_json(text) for text in mode_texts] for mode, mode_texts in texts.items()}
    fibre_finite = decomposition._fibre_finite

    def refused(*args):
        raise AssertionError("a fibre verdict was decided")

    monkeypatch.setattr(decomposition, "_fibre_finite", refused)
    clear_process_memos()
    estimate = parse_job(texts["estimate"][0])
    entry = decomposition._restrict(estimate)[2]
    assert decomposition._restricted_h.cache_info()[:2] == (0, 1)
    for mode in ("assume_zero", "2"):
        assert [run_homology(Job(input=parse_job(text))).to_json() for text in texts[mode]] == cold[mode]
    assert entry.fibre is decomposition._UNDECIDED
    decided = []
    monkeypatch.setattr(
        decomposition, "_fibre_finite", lambda inp, *args: decided.append(inp) or fibre_finite(inp, *args)
    )
    assert [run_homology(Job(input=parse_job(text))).to_json() for text in texts["estimate"]] == cold["estimate"]
    assert decided == [estimate] and entry.fibre is True


# SHARED_TEXTS[0] with g and H as unit-free as they are, and scaled
SCALED_SHARED_TEXT = _job_text("3*y1; -y2", "[[2*x3, 2*x2], [2*x2, 2*x1^2 - 2*x3]]")


def test_the_field_and_substitution_memos_hold_no_input_or_report():
    """Once a job's report and input are dropped and the parsed texts,
    restricted stages and tables cleared, reference counting alone frees
    both, while its fields, g's substitution and its restricted H stay
    kept.  The germ is locus-free, so its stage would keep the report.
    The unit-free forms kept on g's generators and on H are other objects
    when the text scales them, and the sentinel _SAME when it does not,
    never the object itself."""
    gc.disable()
    try:
        for text in (SHARED_TEXTS[0], SCALED_SHARED_TEXT):
            clear_process_memos()
            inp = parse_job(text)
            report = run_homology(Job(input=inp))
            assert report.to_json() == json_oracle(report)
            fields = (*inp.g, inp.h)
            refs = weakref.ref(inp), weakref.ref(report.invariants)
            del inp, report
            for memo in (jobs._parse_job, decomposition._restricted_stage, jobs._tables):
                memo.cache_clear()
            assert [ref() for ref in refs] == [None, None]
            kept = (jobs._field, decomposition._substitution, decomposition._restricted_h)
            assert [memo.cache_info().currsize for memo in kept] == [3, 1, 1]
            forms = [field._free for field in fields]
            if text == SCALED_SHARED_TEXT:
                assert [form == field for form, field in zip(forms, fields)] == [False] * 3
                assert [form._free for form in forms] == [None] * 3
            else:
                assert forms == [decomposition._SAME] * 3
    finally:
        gc.enable()


def test_every_process_memo_is_cleared():
    """Every module-level functools.lru_cache of the package is in
    memos.PROCESS_MEMOS, so clear_process_memos leaves a test no memo an
    earlier test filled."""
    found = []
    for info in pkgutil.iter_modules(milnorfibre.__path__):
        module = importlib.import_module(f"milnorfibre.{info.name}")
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__
        ]
    assert found and set(found) == set(PROCESS_MEMOS)


def test_presentations_of_a_locus_free_germ_share_one_report():
    """g restricts to no generator in each of SHARED_TEXTS, so their germ's
    stage keeps the report: the three jobs get one InvariantReport, with
    its parts, and each job's JSON is its cold JSON."""
    cold = [_cold_json(text) for text in SHARED_TEXTS]
    clear_process_memos()
    reports = [run_homology(Job(input=parse_job(text))) for text in SHARED_TEXTS]
    first = reports[0].invariants
    assert all(r.invariants is first for r in reports)
    assert [r.to_json() for r in reports] == cold
    assert _parts(reports[2]).json is _parts(reports[0]).json
    stage = _stage(SHARED_TEXTS[0])
    assert stage.locus is None
    assert list(stage.reports) == [(0, "assumed")] and stage.reports[0, "assumed"] is first


def _stage(text):
    """The restricted stage of the germ of text under the default budgets."""
    germ, *_ = decomposition._restrict(parse_job(text))
    return decomposition._restricted_stage(germ, DEFAULT_BUDGETS)


def test_a_kept_report_is_keyed_by_the_a1_count_and_provenance():
    """Texts of one locus-free germ with a1 = 1, a1 = 2 and a1 = 1 again:
    the two counts get two reports, and the repeated count the first."""
    texts = [
        SHARED_TEXTS[i] + f"[options]\na1 = {count}\n" for i, count in ((0, 1), (1, 2), (2, 1))
    ]
    got = [run_homology(Job(input=parse_job(text))).invariants for text in texts]
    assert [inv.a1 for inv in got] == [1, 2, 1]
    assert got[0] is not got[1] and got[2] is got[0]
    reports = _stage(texts[0]).reports
    assert list(reports) == [(1, "provided"), (2, "provided")]
    assert reports[1, "provided"] is got[0] and reports[2, "provided"] is got[1]


def test_a_germ_whose_locus_reads_the_seed_keeps_no_report():
    """mu0 > 0: the locus check stays on the stage, and no report does."""
    run_homology(Job(input=parse_job(SINGULAR_LOCUS_JOB), seed=1))
    stage = _stage(SINGULAR_LOCUS_JOB)
    assert stage.locus is not None and stage.reports == {}


def test_a_kept_failure_is_raised_afresh():
    """The failure is reached before the seed is read, so it is kept: the
    second job raises a new error of the same type and text, from the
    memo, with no deeper traceback."""
    inp = parse_job(NON_ISOLATED_JOB)
    raised = []
    for seed in (0, 1):
        with pytest.raises(ComputationError) as exc:
            run_homology(Job(input=inp, seed=seed))
        raised.append(exc.value)
    first, second = raised
    assert type(second) is type(first) and str(second) == str(first)
    assert "finite-codimension surrogate failed" in str(first)
    assert second is not first
    depth = [len(traceback.extract_tb(e.__traceback__)) for e in raised]
    assert depth[1] <= depth[0]
    assert list(inp._outcomes) == [DEFAULT_BUDGETS]


def test_a_parse_error_is_raised_on_every_call():
    text = GOOD_JOB.replace("g = x1; x2", "g = x1; x2 +")
    for _ in range(2):
        with pytest.raises(ParseError, match=r"^line 6: in g: "):
            parse_job(text)
    assert jobs._parse_job.cache_info().currsize == 0


def test_texts_that_share_a_field_share_its_value():
    """Two texts with one vars line get one Ring, and two with one h field
    one PolyMatrix, while each text gets its own input."""
    other = GOOD_JOB.replace("g = x1; x2", "g = x2; x1")
    first, second = parse_job(GOOD_JOB), parse_job(other)
    assert first is not second
    assert first.ring is second.ring
    assert first.h is second.h
    assert first.g == second.g[::-1] and first.g[0] is not second.g[1]


def test_a_bad_field_raises_afresh_with_its_own_line():
    """The same bad h on line 9 of one text, line 10 of another and line 9
    of a third with its variables reversed raises a new ParseError on every
    call, each with its own line and the same message and position, and no
    field of it is kept."""
    bad = GOOD_JOB.replace("x3 - x5^2", "x3 - x5^")
    reversed_vars = bad.replace("vars = x1 x2 x3 x4 x5", "vars = x5 x4 x3 x2 x1")
    texts = (bad, bad.replace("[ideal]", "# shifted\n[ideal]"), reversed_vars)
    raised = []
    for _ in range(2):
        for line, text in zip((9, 10, 9), texts):
            with pytest.raises(ParseError) as caught:
                parse_job(text)
            assert type(caught.value) is ParseError
            assert str(caught.value) == (
                f"line {line}: in h: exponent must be a nonnegative integer, got ']' (at position 24)"
            )
            raised.append(caught.value)
    assert len({id(exc) for exc in raised}) == 6
    # a Ring and a g over each of the two orders, the first one sorted, and no h
    assert jobs._field.cache_info().currsize == 4


def _counting_parses(monkeypatch):
    """Count the calls of the parsers that jobs calls."""
    calls = {"parse_polynomial": 0, "parse_matrix": 0}
    for name in calls:
        parse = getattr(jobs, name)

        def counted(*args, _parse=parse, _name=name):
            calls[_name] += 1
            return _parse(*args)

        monkeypatch.setattr(jobs, name, counted)
    return calls


def test_an_f_field_is_parsed_once_per_variable_set(monkeypatch):
    """Two texts with one f share one polynomial; a text with the same
    fields over the reversed variables gets g, H and f re-indexed, not
    parsed, each equal to its parse with every memo empty."""
    reversed_job = GOOD_JOB.replace("vars = x1 x2 x3 x4 x5", "vars = x5 x4 x3 x2 x1")
    clear_process_memos()
    cold = parse_job(reversed_job)
    clear_process_memos()
    calls = _counting_parses(monkeypatch)
    first = parse_job(GOOD_JOB)
    second = parse_job(GOOD_JOB.replace("a1 = zero", "a1 = 0"))
    assert first.f_expected is second.f_expected
    assert calls == {"parse_polynomial": 3, "parse_matrix": 1}
    other = parse_job(reversed_job)
    assert calls == {"parse_polynomial": 3, "parse_matrix": 1}
    for got, want in ((other.f_expected, cold.f_expected), *zip(other.g, cold.g)):
        assert list(got.items()) == list(want.items()) and got.ring is other.ring
    assert [[list(q.items()) for q in row] for row in other.h.entries()] == [
        [list(q.items()) for q in row] for row in cold.h.entries()
    ]
    assert other.ring.variables == cold.ring.variables
    assert parse_job(reversed_job.replace("a1 = zero", "a1 = 0")).f_expected is other.f_expected


def _shared(h):
    """For each entry of h, the position of the first entry that is the
    same object."""
    first = {}
    return [[first.setdefault(id(q), (i, j)) for j, q in enumerate(row)] for i, row in enumerate(h.entries())]


def test_a_text_first_met_over_an_unsorted_order_is_parsed_over_the_sorted_one(monkeypatch):
    """GOOD_JOB over x5 x4 x3 x2 x1, with every memo empty: each generator
    of g, H and f is parsed once, over the sorted order, and re-indexed.
    The input's g, H and f are the grammar's parse over the text's own
    order: the same term maps in the same order, on the input's ring, and
    the same entries of H one object."""
    order = ("x5", "x4", "x3", "x2", "x1")
    text = GOOD_JOB.replace("vars = x1 x2 x3 x4 x5", "vars = " + " ".join(order))
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    g_texts = fields["g"].split("; ")
    seen = []
    for name in ("parse_polynomial", "parse_matrix"):

        def recorded(field, ring, _parse=getattr(jobs, name), _name=name):
            seen.append((_name, field, ring.variables))
            return _parse(field, ring)

        monkeypatch.setattr(jobs, name, recorded)
    clear_process_memos()
    inp = parse_job(text)
    source = order[::-1]
    assert seen == [
        *(("parse_polynomial", t, source) for t in g_texts),
        ("parse_matrix", fields["h"], source),
        ("parse_polynomial", fields["f"], source),
    ]
    ring = Ring(order)
    cold_h = parse_matrix(fields["h"], ring)
    cold = [
        *(parse_polynomial(t, ring) for t in g_texts),
        *(q for row in cold_h.entries() for q in row),
        parse_polynomial(fields["f"], ring),
    ]
    warm = [*inp.g, *(q for row in inp.h.entries() for q in row), inp.f_expected]
    assert [list(q.items()) for q in warm] == [list(q.items()) for q in cold]
    assert inp.ring.variables == order and inp.h.ring is inp.ring
    assert all(q.ring is inp.ring for q in warm)
    assert _shared(inp.h) == _shared(cold_h) != [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]


# a set of variables with every order, for texts of the parser's properties
FIELD_VARIABLES = ("x", "y", "z")
FIELD_TEXTS = st.one_of(
    st.tuples(st.just("f"), parse_texts),
    st.tuples(st.just("g"), st.lists(parse_texts, min_size=1, max_size=3).map("; ".join)),
    st.tuples(st.just("h"), matrix_texts()),
)


def _grammar_field(key, text, ring):
    """The field key = text parsed over ring by the grammar alone, as
    _field parses it over a sorted order."""
    if key == "g":
        return tuple(parse_polynomial(t.strip(), ring) for t in text.split(";") if t.strip())
    return parse_matrix(text, ring) if key == "h" else parse_polynomial(text, ring)


def _field_outcome(key, text, order, line, cold=False):
    """The field key = text over the variables in order, on line line, as
    _parsed gives it over the kept ring of order, or with cold as the
    grammar gives it over a new ring, with the line and key put before an
    error as _parsed puts them: its term maps in order, which entries of H
    are one object, whether it lies over that ring, and that ring's
    variables; or its error's type and message."""
    ring = Ring(order) if cold else jobs._field("vars", "", order)
    try:
        value = _grammar_field(key, text, ring) if cold else jobs._parsed(key, text, order, line)
    except ParseError as exc:
        return (ParseError, f"line {line}: in {key}: {exc}") if cold else (type(exc), str(exc))
    if key == "h":
        polys = [q for row in value.entries() for q in row]
        on_ring = value.ring is ring and all(q.ring is ring for q in polys)
        return [list(q.items()) for q in polys], _shared(value), on_ring, ring.variables
    polys = value if key == "g" else (value,)
    return [list(q.items()) for q in polys], all(q.ring is ring for q in polys), ring.variables


@given(FIELD_TEXTS, st.permutations(FIELD_VARIABLES), st.permutations(FIELD_VARIABLES))
@example(("h", "[[x*y + 1, y^2], [y^2, (x - z)^3]]"), list("xyz"), list("zxy"))
@example(("g", "x*y - z; (y + 1)^2; z"), list("xyz"), list("yzx"))
@example(("f", "(x + 2*y - z)^3 - x^3"), list("xyz"), list("zyx"))
@example(("h", "[[x, y], [y, w]]"), list("xyz"), list("yxz"))
@example(("h", "[[x*y + 1, y^2], [y^2, (x - z)^3]]"), list("zyx"), list("yxz"))
def test_a_field_over_another_order_is_its_cold_parse(key_text, first, second):
    """A field looked up over one order of its variables, then over
    another, with every memo empty at first, is over each order the
    grammar's parse over that order: the same term maps in the same order,
    the same entries of H one object, one ring, that order's kept Ring;
    looked up again it is the same object.  The memo holds a Ring and the
    field over each order met and over the sorted order.  An invalid text
    raises a new error over each order, with that order's line, as the
    grammar does, and no field of it is kept, only the Rings."""
    key, text = key_text
    first, second = tuple(first), tuple(second)
    orders = {first, second, tuple(sorted(first))}
    cold = [_field_outcome(key, text, first, 1, cold=True), _field_outcome(key, text, second, 2, cold=True)]
    clear_process_memos()
    warm = [_field_outcome(key, text, first, 1), _field_outcome(key, text, second, 2)]
    assert warm == cold
    if isinstance(cold[0][0], type):
        assert warm[0] == (cold[1][0], cold[1][1].replace("line 2:", "line 1:", 1))
        assert jobs._field.cache_info().currsize == len(orders)
    else:
        assert jobs._field.cache_info().currsize == 2 * len(orders)
        assert jobs._field(key, text, second) is jobs._field(key, text, second)


@given(admissible_invariants())
def test_kept_tables_are_built_from_their_own_invariants(invariants):
    """The tables kept for a tuple, and for the tuple with another #A1, are
    the tables a fresh build gives, with the bouquet of the fibre and its
    check after the tables' checks; a tuple met again gets the same kept
    object."""
    mu0, mu1, a, corank, a1, n = invariants
    kept = []
    for count in (a1, a1 + 1, a1):
        key = (mu0, mu1, a, corank, count, n)
        kept.append(jobs._tables(*key))
        fibre, tables, checks, notes = collect_tables(*key)
        assert kept[-1][:4] == (fibre, tables, checks + kept[-1].checks[-1:], notes)
        assert kept[-1].wedge == bouquet(fibre)
        assert kept[-1].checks[-1] == CheckResult(
            "bouquet_torsion_free",
            True,
            f"fibre table is torsion-free with H_0 = Z; bouquet {bouquet(fibre)}",
        )
    assert kept[2] is kept[0] and kept[1] is not kept[0]


def _tuple(inv):
    return inv.mu0, inv.mu1, inv.a, inv.corank, inv.a1, inv.n


def _parts(report):
    """The parts run_homology keeps on report's invariants."""
    return report.invariants._parts


def _detached(report):
    """report with an equal copy of its invariants that keeps no parts,
    as dataclasses.replace leaves them behind."""
    return dataclasses.replace(report, invariants=dataclasses.replace(report.invariants))


def test_a_report_that_changed_since_its_tables_were_kept_renders_afresh():
    """Once a report's JSON is kept on its invariants, a report whose
    invariants, fibre, bouquet, tables, checks or notes are not the very
    objects it was rendered from, made by dataclasses.replace with or
    without those kept parts, gives the oracle's JSON, as the report they
    were built with does."""
    report = run_homology(Job(input=parse_job(GOOD_JOB)))
    parts = _parts(report)
    assert parts.kept is jobs._tables(*_tuple(report.invariants))
    assert parts.json is None
    assert report.to_json() == json_oracle(report)
    assert parts.json is not None
    tail = parts.kept.checks
    failing = dataclasses.replace(tail[-1], passed=False)
    changed = [
        bare(report),
        dataclasses.replace(report, tables=report.tables[:-1]),
        dataclasses.replace(report, tables=report.tables[::-1]),
        dataclasses.replace(report, sphere_bouquet=BouquetDescription(())),
        dataclasses.replace(report, fibre=dict(report.tables)["M"]),
        dataclasses.replace(report, checks=report.checks[:-1] + (failing,)),
        dataclasses.replace(report, checks=report.checks[: -len(tail)]),
        dataclasses.replace(report, checks=tail[1:]),
        dataclasses.replace(report, checks=tail[:-1]),
        dataclasses.replace(report, checks=()),
        dataclasses.replace(
            report, invariants=dataclasses.replace(report.invariants, a1_provenance="provided")
        ),
        dataclasses.replace(report, invariants=dataclasses.replace(report.invariants, mu0=1)),
        dataclasses.replace(report, notes=report.notes[1:]),
        dataclasses.replace(report, notes=("\ud800", *report.notes)),
    ]
    for other in changed:
        for r in (other, _detached(other)):
            assert r.to_json() == json_oracle(r)
    # equal but not the same objects: the kept JSON does not serve, and the
    # bytes are the same
    copied = [
        dataclasses.replace(report, checks=report.checks[:-1] + (dataclasses.replace(tail[-1]),)),
        dataclasses.replace(report, notes=tuple([*report.notes])),
        _detached(report),
    ]
    for r in copied:
        parts = getattr(r.invariants, "_parts", None)
        assert parts is None or not parts.serves(r)
        assert r.to_json() == report.to_json()


def _kept_report(inv, notes, seed):
    """A homology report of inv with notes, whose parts are kept on inv as
    run_homology keeps them."""
    parts = jobs._HomologyParts(inv, notes)
    object.__setattr__(inv, "_parts", parts)
    return parts.report(inv, seed, 0.0)


def test_reports_of_one_tuple_share_the_fragments_and_keep_their_own_parts():
    """Homology reports of one invariant tuple, each with a seed, notes and
    checks of its own, share the kept tables and their fragments, and each
    gives the oracle's JSON; so do the warm reports of one kept outcome,
    whose JSON is rendered once."""
    base = run_homology(Job(input=parse_job(GOOD_JOB))).invariants
    reports = [
        _kept_report(dataclasses.replace(base), ["first"], 3),
        _kept_report(
            dataclasses.replace(base, checks=(CheckResult("own", False, "é\n"),)), [], -7
        ),
        _kept_report(dataclasses.replace(base, checks=()), ["third", "\ud800"], 0),
    ]
    assert _parts(reports[1]).kept is _parts(reports[0]).kept is _parts(reports[2]).kept
    texts = [r.to_json() for r in reports]
    assert texts == [json_oracle(r) for r in reports]
    assert len(set(texts)) == 3

    inp = parse_job(GOOD_JOB)
    warm = [run_homology(Job(input=inp, seed=seed)) for seed in (0, -7, 2**70)]
    assert all(r.invariants is base for r in warm)
    assert warm[0].checks is warm[1].checks is warm[2].checks
    assert warm[0].notes is warm[1].notes is warm[2].notes
    rendered = []
    for r in warm:
        assert r.to_json() == json_oracle(r)
        rendered.append(_parts(r).json)
    assert rendered[0] is rendered[1] is rendered[2]


def test_kept_parts_hold_no_reference_to_their_outcome():
    """The parts and JSON a kept outcome keeps do not refer back to it, so
    once the report, the input and the memos are dropped, reference
    counting alone frees the outcome."""
    gc.disable()
    try:
        report = run_homology(Job(input=parse_job(GOOD_JOB)))
        assert report.to_json() == json_oracle(report)
        assert _parts(report).json is not None
        outcome = weakref.ref(report.invariants)
        assert outcome() is parse_job(GOOD_JOB)._outcomes[DEFAULT_BUDGETS]
        del report
        clear_process_memos()
        assert outcome() is None
    finally:
        gc.enable()


def test_warm_and_cold_memos_give_the_same_json():
    """The corpus under both variable orders and seeds 0-2: warm, each
    input built once and run under every seed with the restricted stages
    and tables kept; cold, a new input and no kept stage or tables for
    every job."""

    def corpus_json(cold):
        out = []
        for case in builtin_cases():
            for order in ("given", "reversed"):
                inp = build_input(case, order)
                for seed in (0, 1, 2):
                    if cold:
                        clear_process_memos()
                        inp = build_input(case, order)
                    out.append(run_homology(Job(input=inp, seed=seed)).to_json())
        return out

    assert corpus_json(cold=False) == corpus_json(cold=True)


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _job_outcome(text, seed):
    """The report JSON of one job, or the type and text of its error."""
    try:
        return run_homology(Job(input=parse_job(text), seed=seed)).to_json()
    except (ComputationError, InconsistencyError, ParseError) as exc:
        return type(exc), str(exc)


def _workloads(monkeypatch):
    """perfbench/workloads.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_warm_and_cold_memos_give_the_same_outcomes_on_the_benchmark_jobs(monkeypatch):
    """Passes 0 and 1 of every benchmark workload at workload seed 5, run
    in order as the benchmark runs them, with a text met earlier reusing its
    input, outcome, parts and JSON, give each job the report JSON or error
    it gets with the parsed inputs and kept tables cleared before it."""
    workloads = _workloads(monkeypatch)
    specs = [
        job
        for name in workloads.WORKLOADS
        for index in (0, 1)
        for job in workloads.build(name, 5, index)
    ]
    warm = [_job_outcome(job.text, job.seed) for job in specs]
    for job, got in zip(specs, warm):
        clear_process_memos()
        assert _job_outcome(job.text, job.seed) == got, job.job_id
    assert {type(got) for got in warm} == {str, tuple}
