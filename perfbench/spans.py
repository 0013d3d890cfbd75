"""In-memory span tracing of shapelab's layers, installed from outside.

``install(tracer)`` wraps the public callables of each shapelab module (and
the few methods the per-layer metrics need) without touching a source file.
A module that bound a callable under its own name with ``from ... import``
gets the wrapper too, because every ``shapelab.*`` module attribute that is
the original object is replaced.

A span records its name, the bucket its self time is charged to, start, end,
parent span and case id, plus a few attributes the ratios need.  Self time
is the span's duration minus the part of it that its child spans cover.
``layer_metrics`` turns a span list into the benchmark's per-layer metrics;
it needs neither shapelab nor numpy, so it can be tested on synthetic spans.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field

# Spans that structure a run but belong to no layer: the whole CLI call and
# one case.  Everything else is a layer span.
ROOT = "run"
CASE = "case"

# (module, qualified name, bucket).  The bucket names the metric that the
# span's self time feeds.
TARGETS = (
    ("geometry", "build_grid", "geometry.grid"),
    ("geometry", "interior_quadrature", "geometry.quadrature"),
    ("geometry", "_blended_rule", "geometry.quadrature"),
    ("perturbation", "FlowFamily.map", "perturbation.flow"),
    ("perturbation", "FlowFamily.map_jacobian", "perturbation.flow"),
    ("perturbation", "TaylorFamily.map", "perturbation.taylor"),
    ("perturbation", "TaylorFamily.map_jacobian", "perturbation.taylor"),
    ("perturbation", "det_derivatives", "perturbation.jacobian_formula"),
    ("perturbation", "inverse_jacobian_derivatives", "perturbation.jacobian_formula"),
    ("perturbation", "boundary_data", "perturbation.jacobian_formula"),
    ("integrands", "IntegrandSpec.from_expression", "integrands.compile"),
    ("integrands", "VectorIntegrandSpec.from_expressions", "integrands.compile"),
    ("_fd", "derivative_ladder", "fd"),
    ("liouville", "first_volume", "liouville.formula"),
    ("liouville", "second_volume", "liouville.formula"),
    ("liouville", "first_area", "liouville.formula"),
    ("liouville", "second_area", "liouville.formula"),
    ("liouville", "boundary_flux_first", "liouville.formula"),
    ("liouville", "boundary_flux_second", "liouville.formula"),
    ("liouville", "nu_dot", "liouville.formula"),
    ("liouville", "fd_reference", "liouville.oracle"),
    ("liouville", "nu_dot_fd", "liouville.oracle"),
    ("greens", "discretize_pushed", "greens.discretize"),
    ("greens", "MixedSolver.__init__", "greens.factor"),
    ("greens", "MixedSolver.solve", "greens.solve"),
    ("greens", "MixedSolver.solve_nodal", "greens.solve"),
    ("greens", "GreensSolver.solve", "greens.solve"),
    ("greens", "GreensSolver.harmonic_bvp", "greens.solve"),
    ("greens", "GreensEval.value", "greens.eval"),
    ("greens", "GreensEval.gradient", "greens.eval"),
    ("greens", "GreensEval.hessian", "greens.eval"),
    ("greens", "GreensEval.corrector_value", "greens.eval"),
    ("greens", "GreensEval.normal_trace", "greens.eval"),
    ("greens", "GreensEval.tangential_trace", "greens.eval"),
    ("greens", "GreensEval.boundary_values", "greens.eval"),
    ("greens", "HarmonicField.value", "greens.eval"),
    ("greens", "HarmonicField.gradient", "greens.eval"),
    ("greens", "HarmonicField.hessian", "greens.eval"),
    ("hadamard", "delta_n_formula", "hadamard.formula"),
    ("hadamard", "delta2_n_formula", "hadamard.formula"),
    ("hadamard", "gradient_pairing_residual", "hadamard.formula"),
    ("hadamard", "delta_n_bvp", "hadamard.bvp"),
    ("hadamard", "delta2_n_bvp", "hadamard.bvp"),
    ("hadamard", "second_bvp_data", "hadamard.bvp"),
    ("hadamard", "delta_n_fd", "hadamard.fd_route"),
    ("hadamard", "delta2_n_fd", "hadamard.fd_route"),
    ("hadamard", "chi_sigma", "hadamard.chi_sigma"),
    ("hadamard", "delta_n_routes", "hadamard.routes"),
    ("hadamard", "delta2_n_routes", "hadamard.routes"),
    ("cli", "load_config", "cli.resolve"),
    ("cli", "build_registry", "cli.resolve"),
    ("cli", "_custom_liouville_cases", "cli.resolve"),
    ("cli", "_custom_hadamard_cases", "cli.resolve"),
    ("cli", "resolve_cases", "cli.resolve"),
    ("cli", "write_reports", "report.write"),
    ("cases", "Case.run", CASE),
)


@dataclass
class Span:
    name: str
    bucket: str
    start: float
    end: float = math.nan
    parent: int = -1
    case: str = ""
    attrs: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.bucket, self.start, self.end, self.parent,
                self.case, self.attrs]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Span recorder for one single-threaded run (``workers=1``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def open(self, name: str, bucket: str, case: str | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if case is None:
            case = self.spans[parent].case if parent >= 0 else ""
        self.spans.append(Span(name, bucket, time.perf_counter(), parent=parent, case=case))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def current_bucket(self) -> str:
        return self.spans[self.stack[-1]].bucket if self.stack else ROOT


def _digest(points) -> str:
    import numpy as np
    arr = np.ascontiguousarray(np.asarray(points, dtype=float))
    return hashlib.blake2b(arr.tobytes(), digest_size=12).hexdigest() + str(arr.shape)


def _annotate(name: str, span: Span, args, result) -> None:
    """Attributes the per-layer ratios need, taken from arguments and result."""
    if name in ("FlowFamily.map", "FlowFamily.map_jacobian"):
        family, points, t = args[0], args[1], float(args[2])
        n_points = len(points) if getattr(points, "ndim", 1) > 1 else 1
        steps = max(1, int(math.ceil(abs(t) / family.step)))
        span.attrs.update(points=n_points, t=t, abs_t=abs(t), steps=steps,
                          key=_digest(points))
    elif name == "interior_quadrature":
        span.attrs["returned"] = int(len(result.weights))
    elif name == "_blended_rule":
        span.attrs["built"] = int(len(result[1]))
    elif name in ("IntegrandSpec.from_expression", "VectorIntegrandSpec.from_expressions"):
        span.attrs["expr"] = " | ".join(str(a) for a in args[1:])
    elif name in ("MixedSolver.__init__", "MixedSolver.solve"):
        rows, cols = args[0].matrix.shape
        span.attrs.update(rows=int(rows), cols=int(cols))


def _wrap(tracer: Tracer, name: str, bucket: str, fn):
    if name == "derivative_ladder":
        return _wrap_ladder(tracer, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        case = args[0].case_id if bucket == CASE else None
        index = tracer.open(name, bucket, case)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        _annotate(name, tracer.spans[index], args, result)
        return result

    return wrapper


def _wrap_ladder(tracer: Tracer, fn):
    """Trace an FD ladder and each distinct abscissa it evaluates.

    Evaluations are charged to the layer that asked for the ladder (the
    oracle), so the ``fd`` bucket keeps only the engine's own arithmetic.
    """

    @functools.wraps(fn)
    def wrapper(g, *args, **kwargs):
        caller = tracer.current_bucket()

        def evaluate(t):
            index = tracer.open("fd.evaluate", caller)
            try:
                return g(t)
            finally:
                tracer.close(index)

        index = tracer.open("derivative_ladder", "fd")
        try:
            return fn(evaluate, *args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def install(tracer: Tracer, package: str = "shapelab") -> list[str]:
    """Wrap every target; return the targets that this version lacks."""
    import importlib

    missing = []
    for module_name, qualname, bucket in TARGETS:
        module = importlib.import_module(f"{package}.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{module_name}.{qualname}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(tracer, qualname, bucket, raw.__func__)))
            continue
        wrapped = _wrap(tracer, qualname, bucket, raw)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
    return missing


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return [(s.end - s.start) - _union_length(children.get(i, ())) for i, s in enumerate(spans)]


def covered_time(spans: list[Span]) -> float:
    """Time covered by at least one layer span."""
    return _union_length((s.start, s.end) for s in spans if s.bucket not in (ROOT, CASE))


def _mean_ms(spans, name, **attrs) -> float:
    picked = [s.end - s.start for s in spans if s.name == name
              and all(math.isclose(s.attrs.get(k, math.nan), v) for k, v in attrs.items())]
    return 1e3 * sum(picked) / len(picked) if picked else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "geometry.grid_calls": "count",
    "geometry.grid_s": "s",
    "geometry.quadrature_calls": "count",
    "geometry.quadrature_s": "s",
    "geometry.quadrature_node_yield": "ratio",
    "perturbation.flow_calls": "count",
    "perturbation.flow_s": "s",
    "perturbation.flow_point_steps": "count",
    "perturbation.flow_repeat_share": "ratio",
    "perturbation.taylor_s": "s",
    "perturbation.jacobian_formula_s": "s",
    "integrands.compile_calls": "count",
    "integrands.compile_s": "s",
    "integrands.compile_distinct_share": "ratio",
    "fd.ladders": "count",
    "fd.evaluations": "count",
    "fd.self_s": "s",
    "liouville.formula_s": "s",
    "liouville.oracle_s": "s",
    "greens.discretize_calls": "count",
    "greens.discretize_s": "s",
    "greens.factorizations": "count",
    "greens.factor_s": "s",
    "greens.solves": "count",
    "greens.solve_s": "s",
    "greens.solves_per_factorization": "ratio",
    "greens.matrix_entries": "count",
    "greens.eval_s": "s",
    "hadamard.formula_s": "s",
    "hadamard.bvp_s": "s",
    "hadamard.fd_route_s": "s",
    "hadamard.chi_sigma_s": "s",
    "setup.import_s": "s",
    "cli.resolve_s": "s",
    "report.write_s": "s",
    "cases.self_s": "s",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.uncovered_share": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "greens.factor_384x192_mean_ms": "ms",
    "greens.solve_384x192_mean_ms": "ms",
    "perturbation.flow_map_9216pts_t0.05_mean_ms": "ms",
}

# Buckets whose self time is reported as ``<bucket>_s``.
SELF_TIME_BUCKETS = ("geometry.grid", "geometry.quadrature", "perturbation.flow",
                     "perturbation.taylor", "perturbation.jacobian_formula",
                     "integrands.compile", "liouville.formula", "liouville.oracle",
                     "greens.discretize", "greens.factor", "greens.solve",
                     "greens.eval", "hadamard.formula", "hadamard.bvp",
                     "hadamard.fd_route", "hadamard.chi_sigma", "cli.resolve",
                     "report.write")


def bucket_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.bucket] = totals.get(span.bucket, 0.0) + own
    return totals


def layer_metrics(spans: list[Span], import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (the trace.* wall figures excluded)."""
    own = bucket_self_times(spans)
    count = {}
    for s in spans:
        count[s.name] = count.get(s.name, 0) + 1
    out = {f"{b}_s": own.get(b, 0.0) for b in SELF_TIME_BUCKETS}

    flows = [s for s in spans if s.bucket == "perturbation.flow"]
    seen, repeats = set(), 0
    for s in flows:
        key = (s.case, s.attrs.get("key"), s.attrs.get("t"))
        repeats += key in seen
        seen.add(key)
    compiles = [s.attrs.get("expr") for s in spans if s.bucket == "integrands.compile"]
    factors = count.get("MixedSolver.__init__", 0)
    solves = count.get("MixedSolver.solve", 0)
    root = [s for s in spans if s.bucket == ROOT]
    run_s = sum(s.end - s.start for s in root)

    out.update({
        "geometry.grid_calls": count.get("build_grid", 0),
        "geometry.quadrature_calls": count.get("interior_quadrature", 0),
        "geometry.quadrature_node_yield": _ratio(
            sum(s.attrs.get("returned", 0) for s in spans),
            sum(s.attrs.get("built", 0) for s in spans)),
        "perturbation.flow_calls": len(flows),
        "perturbation.flow_point_steps": sum(s.attrs.get("points", 0) * s.attrs.get("steps", 0)
                                             for s in flows),
        "perturbation.flow_repeat_share": _ratio(repeats, len(flows)),
        "integrands.compile_calls": len(compiles),
        "integrands.compile_distinct_share": _ratio(len(set(compiles)), len(compiles)),
        "fd.ladders": count.get("derivative_ladder", 0),
        "fd.evaluations": count.get("fd.evaluate", 0),
        "fd.self_s": own.get("fd", 0.0),
        "greens.discretize_calls": count.get("discretize_pushed", 0),
        "greens.factorizations": factors,
        "greens.solves": solves,
        "greens.solves_per_factorization": _ratio(solves, factors),
        "greens.matrix_entries": sum(s.attrs.get("rows", 0) * s.attrs.get("cols", 0) for s in spans
                                     if s.name == "MixedSolver.__init__"),
        "setup.import_s": import_s,
        "cases.self_s": own.get(CASE, 0.0),
        "trace.spans": len(spans),
        "trace.run_s": run_s,
        "trace.uncovered_share": _ratio(run_s - covered_time(spans), run_s),
        "greens.factor_384x192_mean_ms": _mean_ms(spans, "MixedSolver.__init__",
                                                  rows=384, cols=192),
        "greens.solve_384x192_mean_ms": _mean_ms(spans, "MixedSolver.solve",
                                                 rows=384, cols=192),
        "perturbation.flow_map_9216pts_t0.05_mean_ms": _mean_ms(
            spans, "FlowFamily.map", points=9216, abs_t=0.05),
    })
    return out
