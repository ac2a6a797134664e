"""Correctness checks on job outcomes.

An outcome is ``(kind, payload)``: ``("ok", report JSON)``,
``("computation_error", "<type>: <message>")`` or ``("unexpected",
traceback)``.  A job fails when its outcome contradicts the oracle, when a
repeat of the same (job, seed) produces different bytes, or when it
disagrees with the other jobs of its source germ on a field that has no
closed form.
"""

from __future__ import annotations

import json
import traceback
from collections import Counter, defaultdict

from workloads import JobSpec

OK = "ok"
COMPUTATION_ERROR = "computation_error"
UNEXPECTED = "unexpected"


def outcome(pkg, text: str, seed: int) -> tuple[str, str]:
    """Run one job the way the command line does: parse_job, run_homology,
    Report.to_json."""
    try:
        report = pkg.run_homology(pkg.Job(input=pkg.parse_job(text), seed=seed))
        return OK, report.to_json()
    except pkg.ComputationError as exc:
        return COMPUTATION_ERROR, f"{type(exc).__name__}: {exc}"
    except Exception:  # noqa: BLE001 - any other exception is a failed job
        return UNEXPECTED, traceback.format_exc()

A1_PROVENANCE = {"assume_zero": "assumed", "estimate": "experimental-saturation"}


def against_oracle(spec: JobSpec, outcome: tuple[str, str]) -> str | None:
    """The first way the outcome contradicts the job's oracle, or None."""
    kind, payload = outcome
    oracle = spec.oracle
    if oracle.error:
        if kind != COMPUTATION_ERROR:
            return f"expected ComputationError, got {kind}: {payload[:200]}"
        return None
    if kind != OK:
        return f"raised: {payload[-400:]}"
    doc = json.loads(payload)
    inv = doc["invariants"]
    if inv["n"] != spec.n:
        return f"n = {inv['n']}, expected {spec.n}"
    got = (inv["mu0"], inv["mu1"], inv["a"], inv["corank"])
    if oracle.invariants is not None and got != oracle.invariants:
        return f"(mu0, mu1, a, corank) = {got}, expected {oracle.invariants}"
    if oracle.a1 is not None and inv["a1"] != oracle.a1:
        return f"#A1 = {inv['a1']}, expected {oracle.a1}"
    if inv["a1_provenance"] != A1_PROVENANCE[spec.a1_mode]:
        return f"a1_provenance {inv['a1_provenance']!r} for a1 mode {spec.a1_mode}"
    if doc["homology"] is None or doc["bouquet"] is None:
        return "report has no homology or no bouquet"
    wedge = tuple((b["dim"], b["count"]) for b in doc["bouquet"])
    if oracle.bouquet is not None and wedge != oracle.bouquet:
        return f"bouquet {wedge}, expected {oracle.bouquet}"
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    if failing:
        return f"consistency checks failed: {failing}"
    return None


def needs_agreement(spec: JobSpec) -> bool:
    """True when an oracle field of the job is left to agreement."""
    o = spec.oracle
    return not o.error and (o.invariants is None or o.bouquet is None or o.a1 is None)


def agreement_key(outcome: tuple[str, str]) -> str:
    kind, payload = outcome
    if kind != OK:
        return kind
    doc = json.loads(payload)
    return json.dumps([doc["invariants"], doc["homology"], doc["bouquet"]], sort_keys=True)


def disagreeing(keys: dict[str, tuple[str, str]]) -> dict[str, str]:
    """Jobs whose result differs from the majority of their source germ.

    ``keys`` maps the id of every job that needs agreement to (group,
    agreement key); a group needs at least two jobs to be checked at all.
    """
    groups: dict[str, dict[str, str]] = defaultdict(dict)
    for job_id, (group, key) in keys.items():
        groups[group][job_id] = key
    bad = {}
    for group, members in groups.items():
        majority, _ = Counter(members.values()).most_common(1)[0]
        for job_id, key in members.items():
            if key != majority:
                bad[job_id] = f"disagrees with the other {len(members) - 1} jobs of {group}"
    return bad
