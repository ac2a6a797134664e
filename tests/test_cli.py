"""CLI verbs, flags, output formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import milnorfibre
from milnorfibre.cli import main

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


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_main(["invariants", str(tmp_path / "nope.job")], capsys)
    assert code == 2 and "cannot read" in err


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


def test_budget_flag_exit_code(job_path, capsys):
    code, _, err = run_main(
        ["--budget-reductions", "10", "invariants", job_path], capsys
    )
    assert code == 1 and "budget" in err.lower()


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
