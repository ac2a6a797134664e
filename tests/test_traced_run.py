"""The benchmark's tracer runs a job without changing its report.

perfbench/tracer.py wraps the package's public layer functions and the
methods it names by string.  A change to the package that breaks a traced
run, such as removing a method the tracer pins, fails here.
"""

import importlib.util
from pathlib import Path

import milnorfibre
from milnorfibre import jobs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the worked two-point example, with #A1 estimated on the fibre over the
# origin: g is linear and H is constant along x1 and x2
WORKED_JOB = """\
[ring]
vars = x1 x2 x3 x4 x5
[ideal]
g = x1; x2
[matrix]
h = [[x3, x4], [x4, x3 - x5^2]]
[options]
a1 = estimate
"""

# a germ whose H is constant along no direction across V(g), so its #A1
# estimate saturates the Jacobian ideal
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


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def homology_json(text):
    # through the module's attributes, which the tracer wraps
    return jobs.run_homology(jobs.Job(input=jobs.parse_job(text), seed=1)).to_json()


def clear_job_memos():
    jobs._parse_job.cache_clear()
    jobs._tables.cache_clear()


def traced_run(text, warm=False):
    """The tracer after one traced run of the job text, whose JSON must be
    the untraced one.  The traced run starts cold, as the untraced one did,
    unless warm: then it reuses what the untraced run kept."""
    tracing = load_tracer()
    untraced = homology_json(text)
    if not warm:
        clear_job_memos()
    tracer = tracing.Tracer(milnorfibre)
    tracer.install()
    try:
        tracer.begin_pass()
        traced = homology_json(text)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracing.installed_wrappers(milnorfibre) == []
    return tracer


def span_names(tracer):
    return {tracer.names[span[0]] for span in tracer.spans}


def test_traced_homology_job_matches_the_untraced_one():
    tracer = traced_run(WORKED_JOB)
    names = span_names(tracer)
    assert {
        "jobs.parse_job", "jobs.run_homology", "jobs.to_json", "milnor.check_icis",
        "decomposition.a1_count", "jobs.collect_tables", "homology.bouquet",
    } <= names
    assert "standard_basis.saturate" not in names
    assert tracer.counts["orders.key.calls"] > 0
    # the job is corank 2 and its g is linear: restricted to the free
    # variables, (g) has no generator and is smooth, so only (g, det H) is
    # checked, once, and the tracer hashes its one argument tuple
    checks = [span for span in tracer.spans if tracer.names[span[0]] == "milnor.check_icis"]
    assert len(checks) == 1
    assert len(tracer.distinct["milnor.check_icis"][-1]) == 1


def test_traced_saturation_job_matches_the_untraced_one():
    tracer = traced_run(CURVED_JOB)
    assert "standard_basis.saturate" in span_names(tracer)


def colengths_under_a1_count(tracer):
    """The standard_basis.colength spans with decomposition.a1_count among
    their ancestors."""
    spans, names = tracer.spans, tracer.names

    def under_a1_count(span):
        parent = span[3]
        while parent >= 0:
            if names[spans[parent][0]] == "decomposition.a1_count":
                return True
            parent = spans[parent][3]
        return False

    return [s for s in spans if names[s[0]] == "standard_basis.colength" and under_a1_count(s)]


def test_worked_estimate_takes_no_colength():
    """The worked job's H(0) has corank 2, so its #A1 estimate is decided
    in closed form, with no colength under a1_count; the saturated job's
    estimate reads one."""
    assert colengths_under_a1_count(traced_run(WORKED_JOB)) == []
    assert len(colengths_under_a1_count(traced_run(CURVED_JOB))) == 1


def test_warm_traced_rerun_reuses_the_parsed_input_and_its_invariants():
    """A rerun of the text in one process parses nothing, checks no ideal
    and builds no table or bouquet: it gets the input, its seed-free
    invariants and the tables of its invariant tuple, with their JSON, kept
    by the first run, and the same JSON.  The wrapped public functions
    still record their spans."""
    tracer = traced_run(WORKED_JOB, warm=True)
    names = span_names(tracer)
    assert {
        "jobs.parse_job", "jobs.run_homology", "decomposition.invariant_report", "jobs.to_json"
    } <= names
    assert names.isdisjoint({"milnor.check_icis", "jobs.collect_tables", "homology.bouquet"})
