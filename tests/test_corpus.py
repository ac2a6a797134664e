"""Corpus harness behavior: detection of wrong expectations, order handling."""

from milnorfibre.corpus import (
    builtin_cases,
    build_input,
    run_case,
    run_corpus,
)


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
