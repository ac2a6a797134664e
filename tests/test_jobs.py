"""Job-file grammar, report assembly, and JSON serialization."""

import dataclasses
import json
import sys

import pytest
from hypothesis import example, given, strategies as st

from milnorfibre import jobs
from milnorfibre.corpus import build_input, builtin_cases
from milnorfibre.errors import InconsistencyError, ParseError
from milnorfibre.jobs import Job, parse_job, run_homology, run_invariants

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
    doc = report.to_json_dict()
    assert list(doc) == ["invariants", "homology", "bouquet", "checks", "provenance"]
    assert doc["homology"] is None and doc["bouquet"] is None
    assert doc["invariants"]["a1_provenance"] == "assumed"
    assert all(c["pass"] for c in doc["checks"])


def test_homology_report_shape():
    report = run_homology(Job(input=parse_job(GOOD_JOB), seed=2))
    doc = report.to_json_dict()
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
# json.dumps(doc, indent=2) + "\n" is the oracle of Report.to_json.

def json_oracle(doc):
    return json.dumps(doc, indent=2) + "\n"


def test_json_writer_matches_json_dumps_on_every_corpus_report():
    for case in builtin_cases():
        report = run_homology(Job(input=build_input(case, "given")))
        bare = dataclasses.replace(report, fibre=None, tables=(), sphere_bouquet=None)
        for r in (report, bare):
            assert r.to_json() == json_oracle(r.to_json_dict()), case.name


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.text(st.characters(exclude_categories=())),
)
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@given(json_documents)
@example({})
@example([])
@example({"": {}, "a": [[], {}], "b": [True, 1, False, 0, None, -(2**200)]})
@example(["é\n\"\\\t\u2028\x00\x7f\ud800😀", {"ключ\x1f": "\ufeff"}])
def test_json_writer_matches_json_dumps_on_drawn_documents(doc):
    assert jobs._json_text(doc, "\n") + "\n" == json_oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [1.0, float("nan"), (1, 2), {"a": [1, 2.5]}, {1: "a"}, {"a": {"b": {1, 2}}}, b"x", [object()]],
)
def test_json_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        jobs._json_text(doc, "\n")
