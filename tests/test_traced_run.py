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

# the worked two-point example, with #A1 estimated by saturation
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


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def homology_json():
    # through the module's attributes, which the tracer wraps
    return jobs.run_homology(jobs.Job(input=jobs.parse_job(WORKED_JOB), seed=1)).to_json()


def test_traced_homology_job_matches_the_untraced_one():
    tracing = load_tracer()
    untraced = homology_json()
    tracer = tracing.Tracer(milnorfibre)
    tracer.install()
    try:
        tracer.begin_pass()
        traced = homology_json()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracing.installed_wrappers(milnorfibre) == []
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {
        "jobs.parse_job", "jobs.run_homology", "jobs.to_json", "milnor.check_icis",
        "standard_basis.saturate",
    } <= names
    assert tracer.counts["orders.key.calls"] > 0
    # the job is corank 2 and its g is linear: restricted to the free
    # variables, (g) has no generator and is smooth, so only (g, det H) is
    # checked, once, and the tracer hashes its one argument tuple
    checks = [span for span in tracer.spans if tracer.names[span[0]] == "milnor.check_icis"]
    assert len(checks) == 1
    assert len(tracer.distinct["milnor.check_icis"][-1]) == 1
