"""Command-line interface.

Verbs: invariants <job>, homology <job>, dkp, tables, corpus.
Exit codes: 0 success, 1 computation error, 2 parse error, 3 inconsistency.
"""

from __future__ import annotations

import argparse
import sys
import time

from .decomposition import InvariantReport
from .errors import ComputationError, InconsistencyError, ParseError
from .homology import FIBRE_MIN_N, dkp_fibre
from .jobs import Job, Report, _HomologyParts, parse_job, run_homology, run_invariants
from .standard_basis import DEFAULT_BUDGETS, Budgets

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnorfibre",
        description=(
            "Invariants, Milnor fibre homology, and bouquet decomposition for "
            "hypersurface germs presented as f = g * H * g^T"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="recombination seed")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--budget-reductions",
        type=int,
        default=DEFAULT_BUDGETS.reductions,
        help="cap on reduction steps per standard basis (at least 1)",
    )
    parser.add_argument(
        "--budget-basis",
        type=int,
        default=DEFAULT_BUDGETS.basis,
        help="cap on S-pairs reduced per standard basis (at least 1)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_inv = sub.add_parser("invariants", help="mu0, mu1, a, corank, #A1 from a job file")
    p_inv.add_argument("job", help="path to a job file")

    p_hom = sub.add_parser("homology", help="full pipeline: invariants, tables, bouquet")
    p_hom.add_argument("job", help="path to a job file")

    p_dkp = sub.add_parser("dkp", help="sphere dimension for a D(k,p) transversal type")
    p_dkp.add_argument("--k", type=int, required=True)
    p_dkp.add_argument("--p", type=int, required=True)
    p_dkp.add_argument("--n", type=int, required=True)

    p_tab = sub.add_parser("tables", help="homology tables from given invariants")
    p_tab.add_argument("--mu0", type=int, required=True)
    p_tab.add_argument("--mu1", type=int, required=True)
    p_tab.add_argument("--a", type=int, required=True)
    p_tab.add_argument("--corank", type=int, required=True)
    p_tab.add_argument("--n", type=int, required=True)
    p_tab.add_argument("--a1", type=int, default=0)

    sub.add_parser("corpus", help="run the built-in regression corpus")
    return parser


def _budgets_from(args: argparse.Namespace) -> Budgets:
    for flag, value in (
        ("--budget-reductions", args.budget_reductions),
        ("--budget-basis", args.budget_basis),
    ):
        if value < 1:
            raise ParseError(f"{flag} must be at least 1, got {value}")
    return Budgets(reductions=args.budget_reductions, basis=args.budget_basis)


def _load_job(path: str, args: argparse.Namespace) -> Job:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read job file {path}: {exc}") from exc
    return Job(input=parse_job(text), seed=args.seed, budgets=_budgets_from(args))


def _emit(report: Report, fmt: str):
    sys.stdout.write(report.to_json() if fmt == "json" else report.to_text())


def _cmd_invariants(args: argparse.Namespace) -> int:
    _emit(run_invariants(_load_job(args.job, args)), args.fmt)
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    _emit(run_homology(_load_job(args.job, args)), args.fmt)
    return EXIT_OK


def _cmd_dkp(args: argparse.Namespace) -> int:
    try:
        dim = dkp_fibre(args.k, args.p, args.n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if args.fmt == "json":
        sys.stdout.write(
            '{"k": %d, "p": %d, "n": %d, "sphere_dimension": %d}\n'
            % (args.k, args.p, args.n, dim)
        )
    else:
        sys.stdout.write(
            f"D({args.k},{args.p}) transversal type in n = {args.n} variables: "
            f"fibre of the transversal slice is S^{dim}\n"
        )
    return EXIT_OK


def _cmd_tables(args: argparse.Namespace) -> int:
    for name in ("mu0", "mu1", "a", "a1"):
        if getattr(args, name) < 0:
            raise ParseError(f"--{name} must be non-negative")
    if args.n < FIBRE_MIN_N:
        raise ParseError(
            f"the fibre tables need --n at least {FIBRE_MIN_N} at every --corank, got {args.n}"
        )
    if not 0 <= args.corank <= args.n - 3:
        raise ParseError(f"--corank must be in 0..{args.n - 3}, got {args.corank}")
    # at corank >= 2 every (n-4)-minor of H vanishes at 0, so a >= 1; at
    # corank <= 1 H(0) has rank >= n-4, so some (n-4)-minor is a unit and a = 0
    if args.corank >= 2 and args.a < 1:
        raise ParseError(f"--a must be at least 1 at --corank >= 2, got {args.a}")
    if args.corank <= 1 and args.a != 0:
        raise ParseError(f"--a must be 0 at --corank <= 1, got {args.a}")
    # det H is a unit at corank 0, so V(g, det H) is empty and mu1 = 0
    if args.corank == 0 and args.mu1 != 0:
        raise ParseError(f"--mu1 must be 0 at --corank 0, got {args.mu1}")
    start = time.perf_counter()
    inv = InvariantReport(
        n=args.n,
        mu0=args.mu0,
        mu1=args.mu1,
        mu1_applicable=args.corank >= 1,
        a=args.a,
        corank=args.corank,
        a1=args.a1,
        a1_provenance="provided",
        checks=(),
    )
    parts = _HomologyParts(inv, ["tables generated from provided invariants"])
    report = parts.report(inv, args.seed, start)
    _emit(report, args.fmt)
    return EXIT_OK


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import run_corpus

    result = run_corpus(budgets=_budgets_from(args))
    sys.stdout.write(result.render())
    return EXIT_OK if result.all_passed() else EXIT_COMPUTATION


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "invariants": _cmd_invariants,
        "homology": _cmd_homology,
        "dkp": _cmd_dkp,
        "tables": _cmd_tables,
        "corpus": _cmd_corpus,
    }
    try:
        return handlers[args.verb](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
