"""Corpus harness behavior: detection of wrong expectations, order handling."""

import dataclasses

from milnorfibre import corpus
from milnorfibre.corpus import (
    CaseOutcome,
    builtin_cases,
    build_input,
    run_case,
    run_corpus,
)
from milnorfibre.jobs import run_homology


def test_corpus_has_eighteen_cases():
    cases = builtin_cases()
    assert len(cases) == 18
    names = [c.name for c in cases]
    assert len(set(names)) == 18


def test_reversed_order_builds_a_different_ring():
    case = builtin_cases()[0]
    given = build_input(case, "given")
    rev = build_input(case, "reversed")
    assert given.ring.variables == tuple(reversed(rev.ring.variables))
    assert given.ring.variables != rev.ring.variables


def test_injected_off_by_one_is_caught():
    case = builtin_cases()[0]
    mu0, mu1, a, corank = case.expected
    outcome = run_case(case, seeds=(0,), expected=(mu0, mu1 + 1, a, corank))
    assert not outcome.passed
    assert outcome.name == case.name
    assert "expected" in outcome.detail


def test_run_corpus_includes_self_test_line():
    result = run_corpus(seeds=(0,))
    assert result.all_passed()
    assert result.outcomes[-1].name == "harness-self-test"
    assert "detected" in result.outcomes[-1].detail


def test_a_case_that_raises_is_reported_with_its_error():
    case = dataclasses.replace(builtin_cases()[0], g=("0", "y2"))
    outcome = run_case(case, seeds=(0,))
    assert outcome == CaseOutcome(
        case.name, False, "raised InvalidIcisError: zero generator in the presentation"
    )


def test_runs_that_disagree_are_reported_with_their_values(monkeypatch):
    """Each seed's report is given mu1 plus the seed, and the same
    bouquet."""

    def shifted(job):
        report = run_homology(job)
        inv = dataclasses.replace(report.invariants, mu1=report.invariants.mu1 + job.seed)
        return dataclasses.replace(report, invariants=inv)

    monkeypatch.setattr(corpus, "run_homology", shifted)
    case = builtin_cases()[0]
    mu0, mu1, a, corank = case.expected
    outcome = run_case(case, seeds=(0, 1))
    values = [(mu0, mu1, a, corank), (mu0, mu1 + 1, a, corank)]
    assert outcome == CaseOutcome(
        case.name, False, f"runs disagree: {values} / bouquets {[case.expected_bouquet]}"
    )


def test_a_wrong_bouquet_is_reported_with_both():
    case = builtin_cases()[0]
    outcome = run_case(dataclasses.replace(case, expected_bouquet="S^0"), seeds=(0,))
    assert outcome == CaseOutcome(case.name, False, f"bouquet {case.expected_bouquet}, expected S^0")


def test_a_self_test_that_detects_nothing_fails_the_corpus(monkeypatch):
    """With a run_case that passes every case, the injected mismatch goes
    unseen, and the self-test line says so."""
    monkeypatch.setattr(corpus, "run_case", lambda case, *args, **kwargs: CaseOutcome(case.name, True, "ok"))
    result = run_corpus(seeds=(0,))
    probe = builtin_cases()[0].name
    assert not result.all_passed()
    assert result.outcomes[-1] == CaseOutcome(
        "harness-self-test", False, f"injected mu1 off-by-one on {probe} was NOT detected"
    )
    assert result.render().endswith(
        f"[FAIL] harness-self-test: injected mu1 off-by-one on {probe} was NOT detected\n"
        f"18 of 19 corpus checks passed\n"
    )
