"""CLI verbs, flags, output formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import milnorfibre
from milnorfibre import cli, decomposition, homology, milnor
from milnorfibre.cli import main
from memos import clear_process_memos

WORKED_JOB = """\
[ring]
vars = x1 x2 x3 x4 x5
[ideal]
g = x1; x2
[matrix]
h = [[x3, x4], [x4, x3 - x5^2]]
"""


@pytest.fixture
def job_path(tmp_path):
    path = tmp_path / "worked.job"
    path.write_text(WORKED_JOB)
    return str(path)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_text(job_path, capsys):
    code, out, err = run_main(["invariants", job_path], capsys)
    assert code == 0 and err == ""
    assert "mu1      3" in out and "corank   2" in out


def test_homology_json(job_path, capsys):
    code, out, _ = run_main(["--format", "json", "homology", job_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["invariants", "homology", "bouquet", "checks", "provenance"]
    assert doc["bouquet"] == [{"dim": 3, "count": 1}]


def test_seed_flag_does_not_change_values(job_path, capsys):
    docs = []
    for seed in ("0", "3"):
        code, out, _ = run_main(
            ["--seed", seed, "--format", "json", "homology", job_path], capsys
        )
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["invariants"] == docs[1]["invariants"]
    assert docs[0]["homology"] == docs[1]["homology"]
    assert docs[0]["provenance"]["seed"] == 0
    assert docs[1]["provenance"]["seed"] == 3


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.job"
    bad.write_text(WORKED_JOB.replace("[[x3, x4], [x4, x3 - x5^2]]", "[[x3, x4], [x5, x3]]"))
    code, _, err = run_main(["invariants", str(bad)], capsys)
    assert code == 2 and "symmetric" in err


def test_over_expanding_text_is_a_parse_error(tmp_path, capsys):
    """A power or product that would multiply out past the parser's bound
    fails at once, naming its line, before any budget applies."""
    for text in ("(x1 + x2 + x3)^100", "(x1 + x2 + x3 + x4 + x5)^3 * (x1 + x2 + x3 + x4 + x5)^3"):
        bad = tmp_path / "big.job"
        bad.write_text(WORKED_JOB.replace("x3 - x5^2", text))
        start = time.perf_counter()
        code, _, err = run_main(["invariants", str(bad)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "line 6" in err and "over the bound" in err


def test_over_large_exponent_is_a_parse_error(tmp_path, capsys):
    """A power of one term whose exponent is over the parser's bound fails at
    once, naming its line."""
    bad = tmp_path / "big.job"
    bad.write_text(WORKED_JOB.replace("x3 - x5^2", "x3 - (123456789*x5)^100000"))
    start = time.perf_counter()
    code, _, err = run_main(["invariants", str(bad)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "line 6" in err and "exponent 100000 is over the bound" in err


def test_over_long_numeral_is_a_parse_error(tmp_path, capsys):
    """A numeral longer than Python reads as an int fails at once, naming its
    line and its digit count."""
    bad = tmp_path / "long.job"
    bad.write_text(WORKED_JOB.replace("x3 - x5^2", "x3 - " + "9" * 5000 + "*x5"))
    start = time.perf_counter()
    code, _, err = run_main(["invariants", str(bad)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "line 6: in h:" in err and "numeral of 5000 digits" in err


def test_power_whose_term_count_is_past_the_int_string_limit_is_a_parse_error(tmp_path, capsys):
    """A power of three terms whose exponent has 3000 digits may expand to
    a term count of about 6000 digits, more than Python writes as a decimal
    string: the refusal names it as over a power of 2."""
    bad = tmp_path / "big.job"
    bad.write_text(
        WORKED_JOB.replace("[[x3, x4], [x4, x3 - x5^2]]", "[[(x1 + x2 + 1)^" + "9" * 3000 + ", 0], [0, 1]]")
    )
    code, _, err = run_main(["invariants", str(bad)], capsys)
    assert code == 2 and "line 6: in h: power may expand to over 2^" in err
    assert "terms, over the bound 256" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_main(["invariants", str(tmp_path / "nope.job")], capsys)
    assert code == 2 and "cannot read" in err


def test_non_utf8_job_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.job"
    bad.write_bytes(WORKED_JOB.replace("x5^2", "x5^2  # \xe9").encode("latin-1"))
    code, _, err = run_main(["invariants", str(bad)], capsys)
    assert code == 2 and f"cannot read job file {bad}" in err


def test_computation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "noniso.job"
    bad.write_text(WORKED_JOB.replace("x3 - x5^2", "-x3"))
    code, _, err = run_main(["invariants", str(bad)], capsys)
    assert code == 1 and "INFINITE" in err


def test_inconsistency_exit_code(capsys):
    code, _, err = run_main(
        ["tables", "--mu0", "0", "--mu1", "1", "--a", "2", "--corank", "2", "--n", "8"],
        capsys,
    )
    assert code == 3 and "mu0 + 2*mu1" in err


@pytest.mark.parametrize(
    "corank, n, message",
    [
        ("-1", "6", "--corank"),
        ("4", "6", "--corank"),
        ("0", "3", "--n"),
        ("1", "4", "--corank"),
        ("0", "4", "--n"),
    ],
)
def test_tables_out_of_range_flag_exit_code(corank, n, message, capsys):
    code, _, err = run_main(
        ["tables", "--mu0", "0", "--mu1", "0", "--a", "0", "--corank", corank, "--n", n],
        capsys,
    )
    assert code == 2 and message in err


def test_tables_refuse_a_below_one_at_corank_two(capsys):
    # every (n-4)-minor of H vanishes at 0 at corank >= 2, so a >= 1
    code, out, err = run_main(
        ["tables", "--mu0", "0", "--mu1", "1", "--a", "0", "--corank", "2", "--n", "8"],
        capsys,
    )
    assert code == 2 and "--a must be at least 1 at --corank >= 2" in err and not out


@pytest.mark.parametrize(
    "corank, a, expected", [("1", "3", 2), ("0", "1", 2), ("1", "1", 2), ("0", "0", 0), ("1", "0", 0)]
)
def test_tables_take_a_zero_at_corank_at_most_one(corank, a, expected, capsys):
    # H(0) has rank >= n-4 at corank <= 1, so some (n-4)-minor is a unit and a = 0;
    # the one accepted corank-0 job takes mu1 = 0 as well
    mu1 = "0" if (corank, expected) == ("0", 0) else "2"
    code, out, err = run_main(
        ["--format", "json", "tables", "--mu0", "0", "--mu1", mu1, "--a", a,
         "--corank", corank, "--n", "5"],
        capsys,
    )
    assert code == expected
    if code:
        assert f"--a must be 0 at --corank <= 1, got {a}" in err and not out
    else:
        assert json.loads(out)["invariants"]["a"] == 0


@pytest.mark.parametrize("mu1, n", [("2", "5"), ("1", "6")])
def test_tables_refuse_mu1_at_corank_zero(mu1, n, capsys):
    # det H is a unit at corank 0, so a corank-0 job always has mu1 = 0
    code, out, err = run_main(
        ["tables", "--mu0", "0", "--mu1", mu1, "--a", "0", "--corank", "0", "--n", n],
        capsys,
    )
    assert code == 2 and f"--mu1 must be 0 at --corank 0, got {mu1}" in err and not out


# the order-3 germ of the corpus under a sparse shear, with the #A1
# estimate: g is linear and H is constant along the plane spanned by the
# directions (0, 1, 0, -1, -1) and (0, 0, 1, 0, 0), which meets V(g) in 0,
# so the estimate is decided on the fibre over the origin, and every
# colength of the job fits in 10 reductions
SHEARED_JOB = """\
[ring]
vars = x1 x2 x3 y1 y2
[ideal]
g = -2*x2 + x3; x2
[matrix]
h = [[x2 + y1, x1], [x1, (x2 + y2)^3 - x2 - y1]]
[options]
a1 = estimate
"""

# a germ whose H is constant along no direction across V(g): its #A1
# estimate is a saturation, which does not fit in 10 reductions
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


def test_budget_flag_exit_code(tmp_path, capsys):
    curved = tmp_path / "curved.job"
    curved.write_text(CURVED_JOB)
    assert run_main(["invariants", str(curved)], capsys)[0] == 0
    code, _, err = run_main(
        ["--budget-reductions", "10", "invariants", str(curved)], capsys
    )
    assert code == 1 and "budget" in err.lower()
    sheared = tmp_path / "sheared.job"
    sheared.write_text(SHEARED_JOB)
    code, out, _ = run_main(
        ["--budget-reductions", "10", "invariants", str(sheared)], capsys
    )
    assert code == 0 and "#A1      0" in out


@pytest.mark.parametrize(
    "flag, value", [("--budget-reductions", "0"), ("--budget-basis", "-5")]
)
def test_budget_flag_below_one_is_parse_error(flag, value, job_path, capsys):
    code, _, err = run_main([flag, value, "invariants", job_path], capsys)
    assert code == 2 and flag in err and "at least 1" in err


def test_dkp_verb(capsys):
    code, out, _ = run_main(["dkp", "--k", "3", "--p", "1", "--n", "6"], capsys)
    assert code == 0 and "S^3" in out
    code, out, _ = run_main(
        ["--format", "json", "dkp", "--k", "3", "--p", "2", "--n", "7"], capsys
    )
    assert code == 0 and json.loads(out)["sphere_dimension"] == 5
    code, _, err = run_main(["dkp", "--k", "3", "--p", "4", "--n", "6"], capsys)
    assert code == 2


def test_tables_verb_text(capsys):
    code, out, _ = run_main(
        ["tables", "--mu0", "0", "--mu1", "3", "--a", "2", "--corank", "2", "--n", "8"],
        capsys,
    )
    assert code == 0
    assert "B_low" in out and "B_u_tilde" in out and "bouquet: S^6" in out


def test_corpus_verb(capsys):
    code, out, _ = run_main(["corpus"], capsys)
    assert code == 0
    assert "corpus checks passed" in out
    assert "FAIL" not in out


def test_console_script_entry_point(job_path):
    # the child imports the package under test, installed or not
    src = str(Path(milnorfibre.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "milnorfibre.cli", "invariants", job_path],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "corank   2" in proc.stdout


# Error branches that no input of the other tests reaches.  Each job runs
# with every process memo empty (conftest.py), and a kept failure goes with
# its input when the memos are cleared after the test.


def _job_file(tmp_path, g, h, options=""):
    path = tmp_path / "branch.job"
    path.write_text(f"[ring]\nvars = x1 x2 x3 y1 y2\n[ideal]\ng = {g}\n[matrix]\nh = {h}\n{options}")
    return str(path)


def test_a_zero_generator_is_a_computation_error(tmp_path, capsys):
    path = _job_file(tmp_path, "0; y2", "[[x1, 0], [0, 1]]")
    code, out, err = run_main(["homology", path], capsys)
    assert (code, out) == (1, "")
    assert err == "computation error: zero generator in the presentation\n"


def test_a_violated_rank_guard_is_an_inconsistency(job_path, monkeypatch, capsys):
    """The worked job has corank 2, so its rank guards are evaluated; one
    that reads negative stops the job before any table is built."""
    monkeypatch.setattr(decomposition, "rank_guards", lambda mu1, a: (("mu1 - a >= 0", -1),))
    code, out, err = run_main(["homology", job_path], capsys)
    assert (code, out) == (3, "")
    assert err == "inconsistency: rank guard violated: mu1 - a >= 0\n"


def test_a_zero_saturation_is_a_computation_error(tmp_path, monkeypatch, capsys):
    """H varies along y1, so the #A1 estimate is outside the fibre class
    and takes the saturation, here one that gives the zero ideal."""
    path = _job_file(tmp_path, "y1; y2", "[[1 + y1, x2], [x2, x3]]", "[options]\na1 = estimate\n")
    assert run_main(["invariants", path], capsys)[0] == 0
    # the input keeps its outcome, and a new parse of the text gets none
    clear_process_memos()
    monkeypatch.setattr(decomposition, "saturate", lambda jac, gens, order, budgets: ([jac[0] * 0], 1))
    code, out, err = run_main(["invariants", path], capsys)
    assert (code, out) == (1, "")
    assert err == "computation error: saturation of the Jacobian ideal is zero\n"


def test_a_negative_milnor_number_of_the_locus_is_an_inconsistency(tmp_path, monkeypatch, capsys):
    """Both generators of g stay nonlinear after the restriction, so mu0
    comes from milnor_icis' chain of two colengths, here (5, 0)."""
    path = _job_file(tmp_path, "y1 + x1^2; y2^2 + x1^2 + x2^2 + x3^2 + y1^3", "[[x1, 0], [0, 1]]")
    code, out, _ = run_main(["invariants", path], capsys)
    assert code == 0 and "mu0      1" in out
    monkeypatch.setattr(milnor, "_chain_colengths", lambda check, rows, budgets: (5, 0))
    code, out, err = run_main(["invariants", path], capsys)
    assert (code, out) == (3, "")
    assert err == "inconsistency: negative Milnor number -5 from chain colengths (5, 0)\n"


def _inexact_abs(x):
    """abs for smith_normal_form that sees no pivot but a unit one, so a
    diagonal matrix with no unit entry comes back as it is."""
    return 1 if x in (1, -1) else 0


@pytest.mark.parametrize(
    "name, fake, m, message",
    [
        ("int_determinant", lambda rows: 2, [[2, 4], [6, 8]], "Smith transform not unimodular"),
        ("_mat_mul", lambda p, q: [], [[2, 4], [6, 8]], "Smith decomposition does not multiply back"),
        ("abs", _inexact_abs, [[0, 0], [0, 3]], "zero before nonzero on Smith diagonal"),
        ("abs", _inexact_abs, [[2, 0], [0, 3]], "Smith diagonal divisibility broken"),
    ],
)
def test_smith_self_checks_are_inconsistencies(name, fake, m, message, monkeypatch, capsys):
    """m passes every self-check.  No verb calls smith_normal_form, a
    library function, so a verb's handler is replaced by one that calls it,
    with a helper of it replaced so that one self-check fails: main maps
    the error to the inconsistency exit code."""
    homology.smith_normal_form(m)
    monkeypatch.setattr(homology, name, fake, raising=False)
    monkeypatch.setattr(cli, "_cmd_corpus", lambda args: homology.smith_normal_form(m))
    code, out, err = run_main(["corpus"], capsys)
    assert (code, out) == (3, "")
    assert err == f"inconsistency: {message}\n"
