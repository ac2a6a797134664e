"""Outside-in tracer for the traced benchmark run.

The tracer replaces public functions of the package's layer modules with
wrappers, at every module attribute that refers to them: a function imported
with ``from .milnor import check_icis`` is wrapped both as
``milnor.check_icis`` and as ``decomposition.check_icis``, and calls inside
its own module go through the wrapped global too.  Nothing inside the
package changes; ``uninstall`` restores every attribute.

Each wrapped call records a span (name, start, end, parent span, job id) in
memory.  Calls too frequent for a span each are leaves: ``orders.key``, which
runs once per reduction step and per shifted term, and the arithmetic
methods of ``rings.Polynomial`` and ``rings.PolyMatrix``.  The outermost leaf
call is timed; its time counts for its own layer and not for the self time
of the span it runs in, and a leaf inside a leaf counts for the outer one.
The exponent helpers ``rings.monomial_*`` run per term inside the reduction
loop and are left alone, as are ``Polynomial`` construction and term access:
their time stays with the caller's layer, mostly ``standard_basis``.  At the
end of the run the spans, counts and leaf times are written to a JSON-lines
file, and every per-layer metric is derived from that file.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

LAYERS = ("rings", "orders", "standard_basis", "milnor", "decomposition", "homology", "jobs")

LEAF_HELPERS = frozenset(
    {"monomial_degree", "monomial_mul", "monomial_divides", "monomial_div", "monomial_lcm"}
)

# Methods traced with a span each: (module, class, method, span name).
SPAN_METHODS = (("jobs", "Report", "to_json", "jobs.to_json"),)

# Leaf methods: (module, class, methods, counted as).  Only orders.key has
# its calls counted: they are an exact proxy for reduction steps.
LEAF_METHODS = (
    ("orders", "MonomialOrder", ("key",), "orders.key"),
    (
        "rings",
        "Polynomial",
        (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__pow__", "scale", "derivative", "substitute",
        ),
        None,
    ),
    ("rings", "PolyMatrix", ("__matmul__", "left_multiply_constants", "transpose"), None),
)

# spans whose canonicalised argument tuples are collected, for distinct_frac
DISTINCT = frozenset({"rings.determinant", "standard_basis.standard_basis", "milnor.check_icis"})

# Per-layer metrics as (name, unit).  "<span>.<stat>" metrics are per traced
# pass of the workload's job list: calls = spans, s = time in outermost spans
# of that name, self_s = time minus child spans and the leaf calls made in
# the span itself, distinct_frac = distinct argument tuples / calls, anything
# else = a count taken from return values.  <layer>.self_share is the layer's
# self time (its spans' self time plus its leaf time) over traced job time.
PER_LAYER = (
    ("rings.minors.calls", "calls/pass"),
    ("rings.minors.self_s", "s/pass"),
    ("rings.determinant.calls", "calls/pass"),
    ("rings.determinant.s", "s/pass"),
    ("rings.determinant.distinct_frac", "frac"),
    ("orders.key.calls", "calls/pass"),
    ("standard_basis.standard_basis.calls", "calls/pass"),
    ("standard_basis.standard_basis.s", "s/pass"),
    ("standard_basis.standard_basis.distinct_frac", "frac"),
    ("standard_basis.standard_basis.basis_terms", "terms/pass"),
    ("standard_basis.colength.calls", "calls/pass"),
    ("standard_basis.colength.self_s", "s/pass"),
    ("standard_basis.colength.staircase", "monomials/pass"),
    ("standard_basis.saturate.s", "s/pass"),
    ("standard_basis.saturate.rounds", "rounds/pass"),
    ("standard_basis.intersect_ideals.calls", "calls/pass"),
    ("standard_basis.intersect_ideals.s", "s/pass"),
    ("standard_basis.is_member.s", "s/pass"),
    ("milnor.milnor_icis.calls", "calls/pass"),
    ("milnor.milnor_icis.self_s", "s/pass"),
    ("milnor.check_icis.calls", "calls/pass"),
    ("milnor.check_icis.s", "s/pass"),
    ("milnor.check_icis.distinct_frac", "frac"),
    ("decomposition.invariant_report.self_s", "s/pass"),
    ("decomposition.compute_a.calls", "calls/pass"),
    ("decomposition.a1_count.s", "s/pass"),
    ("decomposition.verify_decomposition.s", "s/pass"),
    ("homology.milnor_fibre_homology.s", "s/pass"),
    ("homology.bouquet.s", "s/pass"),
    ("jobs.collect_tables.s", "s/pass"),
    ("jobs.parse_job.s", "s/pass"),
    ("jobs.run_homology.self_s", "s/pass"),
    ("jobs.to_json.s", "s/pass"),
) + tuple((f"{layer}.self_share", "frac") for layer in LAYERS) + (
    ("trace.job_s", "s/pass"),
    ("trace.overhead_frac", "frac"),
)

WRAPPED_MARK = "__perfbench_wrapped__"


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _basis_terms(tracer: "Tracer", result) -> None:
    tracer.counts["standard_basis.standard_basis.basis_terms"] += sum(len(p) for p in result)


def _staircase(tracer: "Tracer", result) -> None:
    if result != float("inf"):
        tracer.counts["standard_basis.colength.staircase"] += int(result)


def _rounds(tracer: "Tracer", result) -> None:
    tracer.counts["standard_basis.saturate.rounds"] += result[1]


# counts read off return values
POST = {
    "standard_basis.standard_basis": _basis_terms,
    "standard_basis.colength": _staircase,
    "standard_basis.saturate": _rounds,
}


def package_modules(package: types.ModuleType) -> list[types.ModuleType]:
    prefix = package.__name__ + "."
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == package.__name__ or name.startswith(prefix))
    ]


def installed_wrappers(package: types.ModuleType) -> list[str]:
    """Attributes of the package that currently hold a tracer wrapper."""
    found = []
    for module in package_modules(package):
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type):
                found += [
                    f"{module.__name__}.{attr}.{m}"
                    for m, v in vars(value).items()
                    if hasattr(v, WRAPPED_MARK)
                ]
    return found


class Tracer:
    """Spans and counts of one traced run; install/uninstall around passes."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.names: list[str] = []
        # (name index, start, end, parent, job, outermost, pass, leaf time inside)
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)  # per layer
        self._leaf_clock = [0.0]  # all leaf time so far
        self._in_leaf = [False]
        self.distinct: dict[str, list[set]] = defaultdict(list)
        self.job: str | None = None
        self.passes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._layers = {m.__name__.rsplit(".", 1)[-1]: m for m in package_modules(package)}
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced callable."""
        out = {}
        mods = self._layers
        for layer in LAYERS:
            module = mods[layer]
            for attr, fn in vars(module).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in LEAF_HELPERS
                ):
                    out[id(fn)] = (fn, self._span_wrapper(fn, f"{layer}.{attr}"))
        for layer, cls, meth, name in SPAN_METHODS:
            fn = vars(getattr(mods[layer], cls))[meth]
            out[id(fn)] = (fn, self._span_wrapper(fn, name))
        for layer, cls, meths, counted in LEAF_METHODS:
            for meth in meths:
                fn = vars(getattr(mods[layer], cls))[meth]
                out[id(fn)] = (fn, self._leaf_wrapper(fn, layer, counted))
        return out

    def _span_wrapper(self, fn, name: str):
        tracer, spans, stack, leaf_clock = self, self.spans, self.stack, self._leaf_clock
        nid = len(self.names)
        self.names.append(name)
        post = POST.get(name)
        signature = inspect.signature(fn) if name in DISTINCT else None
        depth = [0]

        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.distinct[name][-1].add(hash(_freeze(tuple(bound.arguments.values()))))
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            depth[0] += 1
            leaf_start = leaf_clock[0]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[0] -= 1
                stack.pop()
                spans[idx] = (
                    nid, start, end, parent, tracer.job, depth[0] == 0, tracer.passes,
                    leaf_clock[0] - leaf_start,
                )
            if post is not None:
                post(tracer, result)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _leaf_wrapper(self, fn, layer: str, counted: str | None):
        counts, stack, leaf_clock, in_leaf = self.counts, self.stack, self._leaf_clock, self._in_leaf
        layer_s = self.leaf_s
        key = f"{counted}.calls" if counted else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            if in_leaf[0] or not stack:
                return fn(*args, **kwargs)
            in_leaf[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                in_leaf[0] = False
                leaf_clock[0] += spent
                layer_s[layer] += spent

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def begin_pass(self) -> None:
        """Start a traced pass: distinct-argument sets are kept per pass."""
        self.passes += 1
        for name in DISTINCT:
            self.distinct[name].append(set())

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in package_modules(self.package):
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        methods = [(layer, cls, meth) for layer, cls, meth, _ in SPAN_METHODS]
        methods += [(layer, cls, m) for layer, cls, meths, _ in LEAF_METHODS for m in meths]
        for layer, cls, meth in methods:
            owner = getattr(self._layers[layer], cls)
            value = vars(owner)[meth]
            self._patches.append((owner, meth, value))
            setattr(owner, meth, self._wrappers[id(value)][1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        """Spans and counts as JSON lines: one header, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        head = dict(header)
        head.update(
            names=self.names,
            passes=self.passes,
            counts=dict(self.counts),
            leaf_s=dict(self.leaf_s),
            distinct={k: [len(s) for s in v] for k, v in self.distinct.items()},
        )
        with open(path, "w") as out:
            out.write(json.dumps(head) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(path: Path) -> tuple[dict, list]:
    with open(path) as src:
        header = json.loads(src.readline())
        spans = [json.loads(line) for line in src]
    return header, spans


def derive(header: dict, spans: list) -> dict[str, float]:
    """Every PER_LAYER metric from a written trace."""
    names = header["names"]
    passes = header["passes"]
    child = [0.0] * len(spans)
    child_leaf = [0.0] * len(spans)
    for _nid, start, end, parent, *_, leaf in spans:
        if parent >= 0:
            child[parent] += end - start
            child_leaf[parent] += leaf
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    job_s = 0.0
    for i, (nid, start, end, parent, _job, outer, _pass, leaf) in enumerate(spans):
        name = names[nid]
        dur = end - start
        calls[name] += 1
        if outer:
            total[name] += dur
        own = dur - child[i] - (leaf - child_leaf[i])
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            job_s += dur
    for layer, spent in header["leaf_s"].items():
        layer_self[layer] += spent
    counts = header["counts"]
    distinct = header["distinct"]
    out = {}
    for metric, _unit in PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        if stat == "self_share":
            value = layer_self[span] / job_s if job_s else 0.0
        elif metric == "trace.job_s":
            value = job_s / passes
        elif metric == "trace.overhead_frac":
            value = header["traced_pass_s"] / header["untraced_pass_s"] - 1.0
        elif stat == "calls":
            value = (counts[metric] if metric in counts else calls[span]) / passes
        elif stat == "s":
            value = total[span] / passes
        elif stat == "self_s":
            value = self_s[span] / passes
        elif stat == "distinct_frac":
            value = sum(distinct[span]) / calls[span] if calls[span] else 0.0
        else:
            value = counts.get(metric, 0) / passes
        out[metric] = value
    return out
