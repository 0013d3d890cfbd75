"""Config-driven runner for the verification case registry.

Subcommands: ``run``, ``list-cases``, ``describe-case``.  Runs are
deterministic given (config, seed): randomized cases seed their generators
from the global seed and the case id, rows are assembled in case-id order,
and report.json carries no timing data.

Exit codes: 0 all cases passed; 1 at least one case failed its tolerance;
2 configuration problem (bad file, unknown key, unresolved case); 3 a
solver diagnostic failure (collocation residual above the hard threshold).
The config schema is here: the keyword signatures of the builders that
``read_object`` calls.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import geometry as geo
from . import hadamard as hd
from . import perturbation as pert
from ._fd import ladder_steps
from .cases import (Case, CaseSettings, build_registry, route_result, suites,
                    variation_ops, variation_result)
from .integrands import IntegrandSpec, VectorIntegrandSpec, _sympy
from .report import write_reports

EXIT_OK = 0
EXIT_CASE_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def read_object(what: str, spec, builder, noun: str = ""):
    """``builder(**spec)`` for the config object ``spec`` (a dict of builders of
    one ``noun`` is a table: ``spec["name"]`` picks one).  A key the builder does
    not take, or a required key ``spec`` lacks, is a ConfigError naming it."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object, not {spec!r}")
    kwargs = dict(spec)
    if isinstance(builder, dict):
        if "name" not in kwargs:
            raise ConfigError(f"missing key 'name' in {what}")
        name = kwargs.pop("name")
        if name not in builder:
            raise ConfigError(f"unknown {noun} {name!r}; choose from {sorted(builder)}")
        builder = builder[name]
    params = inspect.signature(builder).parameters
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = [key for key, p in params.items() if p.default is p.empty and key not in kwargs]
    if missing:
        raise ConfigError(f"missing key {missing[0]!r} in {what}")
    return builder(**kwargs)


def _integer(name: str, value) -> int:
    """``value``, an integral number or a decimal string, as an int."""
    try:
        if not isinstance(value, bool) and (isinstance(value, str) or int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer, not {value!r}")


def _overrides(m=None, n_charges=None) -> dict:
    """Overrides of ``CaseSettings``' m=128 and n_charges=96, by the library's rules."""
    given = {key: _integer(key, value) for key, value in (("m", m), ("n_charges", n_charges))
             if value is not None}
    if m is not None and (given["m"] < 16 or given["m"] & (given["m"] - 1)):
        raise ConfigError(f"m must be a power of two >= 16, not {given['m']}")
    if n_charges is not None and given["n_charges"] < 1:
        raise ConfigError(f"n_charges must be at least 1, not {given['n_charges']}")
    return given


def _config(suite=None, cases=[], seed=0, workers=1, out_dir="reports", overrides={},
            custom_liouville=[], custom_hadamard=[]) -> dict:
    """The top level of a config, every absent key at its default."""
    for key, value, kind, name in (("overrides", overrides, dict, "an object"),
                                   ("cases", cases, list, "a list"),
                                   ("custom_liouville", custom_liouville, list, "a list"),
                                   ("custom_hadamard", custom_hadamard, list, "a list"),
                                   ("out_dir", out_dir, str, "a string")):
        if not isinstance(value, kind):
            raise ConfigError(f"{key} must be {name}, not {value!r}")
    # cases run one after another in this process; "workers": 1 is still accepted
    if workers != 1:
        raise ConfigError(f"workers must be 1, not {workers!r}")
    return {"suite": suite, "cases": list(cases), "seed": _integer("seed", seed),
            "out_dir": out_dir, "overrides": read_object("override", overrides, _overrides),
            "custom_liouville": list(custom_liouville),
            "custom_hadamard": list(custom_hadamard)}


def load_config(path: str | None) -> dict:
    """The config file at ``path`` read by ``_config``; no path reads as {}."""
    cfg = {}
    if path is not None:
        try:
            with open(path) as handle:
                cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be an object")
    return read_object("config", cfg, _config)


FIELDS = {"dilation": pert.dilation, "rotation": pert.rotation,
          "translation": pert.translation, "shear": pert.shear,
          # terms: a {"component,px,py": coefficient} table
          "polynomial": lambda terms: pert.PolynomialField(
              {tuple(int(v) for v in k.split(",")): float(c) for k, c in dict(terms).items()})}

CURVES = {
    "circle": lambda r=1.0, center=(0.0, 0.0): geo.disk(r, center),
    "ellipse": geo.elliptical_domain,
    "star": geo.star_domain,
    "annulus": lambda r_in, r_out, center=(0.0, 0.0): geo.annulus(r_in, r_out, center),
    # one closed curve per component, outer first, from its coefficient tables
    "fourier": lambda components: geo.BoundaryCurve(tuple(
        read_object("fourier component", comp, lambda cos, sin: geo.FourierCurve(cos, sin))
        for comp in components)),
}


def _family(field, kind="flow", r_field=None):
    """The flow of ``field``, or the Taylor family of S = ``field`` and R = ``r_field``."""
    if kind not in ("flow", "taylor"):
        raise ConfigError(f"unknown family kind {kind!r}; choose from ['flow', 'taylor']")
    if kind == "flow" and r_field is not None:
        raise ConfigError("a flow family takes no r_field")
    s_field = read_object("field", field, FIELDS, "velocity field")
    if r_field is not None:
        r_field = read_object("r_field", r_field, FIELDS, "velocity field")
    return pert.FlowFamily(s_field) if kind == "flow" else pert.TaylorFamily(s_field, r_field)


def _tolerance(value) -> float:
    tolerance = _finite(value)
    if tolerance is None or tolerance <= 0.0:
        raise ConfigError(f"tolerance must be a finite positive number, not {value!r}")
    return float(tolerance)


def _finite(value, shape=()) -> np.ndarray | None:
    """``value``, numbers other than booleans, as a finite float array of ``shape``, or None."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None
    booleans = any(isinstance(v, bool) for v in np.ravel(np.array(value, dtype=object)))
    return array if array.shape == shape and np.all(np.isfinite(array)) and not booleans else None


def _curve(domain):
    """A custom case's curve, and the key that shares its Domain in a run."""
    return (read_object("domain", domain, CURVES, "curve"),
            ("config", json.dumps(domain, sort_keys=True)))


def _liouville_case(id, kind, domain, family, integrand, tolerance=1e-4, ladder=None) -> Case:
    kinds = sorted(variation_ops())
    if kind not in kinds:
        raise ConfigError(f"unknown kind {kind!r}; choose from {kinds}")
    curve, domain_key = _curve(domain)
    family = read_object("family", family, _family)
    flux = kind.startswith("flux")
    items = integrand if flux else [integrand]
    if not isinstance(items, list) or len(items) != (2 if flux else 1) or not all(
            isinstance(item, (str, int, float)) and not isinstance(item, bool) for item in items):
        shape = "a list of 2 expressions" if flux else "one expression"
        raise ConfigError(f"a {kind} integrand is {shape}, not {integrand!r}")
    sp, symbols = _sympy()  # only user-written integrands need it
    try:
        exprs = [sp.sympify(item) for item in items]
    except sp.SympifyError as exc:
        raise ConfigError(f"integrand {integrand!r} does not parse: {exc}") from exc
    others = sorted(str(s) for e in exprs for s in e.free_symbols - set(symbols))
    if others:
        raise ConfigError(f"integrand {integrand!r} has symbols other than x1, x2, t: {others}")
    undefined = sorted(str(f.func) for e in exprs for f in e.atoms(sp.core.function.AppliedUndef))
    if undefined:
        raise ConfigError(f"integrand {integrand!r} calls undefined functions: {undefined}")
    if any(e.has(sp.I) for e in exprs):  # compiled values are cast to float
        raise ConfigError(f"integrand {integrand!r} is not real: it uses I")
    tolerance = _tolerance(tolerance)
    ladder = ladder_steps(ladder)

    def runner(st, case):
        # sympy compilation runs with the case, not during config resolution
        spec = (VectorIntegrandSpec.from_expressions(*integrand) if flux
                else IntegrandSpec.from_expression(integrand))
        return variation_result(kind, st.domain(domain_key, curve), family, spec,
                                ladder=ladder)

    return Case(id, "liouville", "config-declared derivative case",
                tolerance, runner, description=f"user case {id} ({kind})")


def _hadamard_case(id, domain, mixed, family, probes, variation="first",
                   tolerance=None) -> Case:
    """A route-agreement case; ``tolerance`` is by default 1e-3 (first) or 1e-2 (second)."""
    routes = {"first": hd.delta_n_routes, "second": hd.delta2_n_routes}
    curve, domain_key = _curve(domain)
    mixed = geo.MixedBoundary(tuple(mixed))
    if len(mixed.kinds) != curve.n_components:
        raise ConfigError(f"mixed needs {curve.n_components} entries, one per "
                          f"boundary component, not {len(mixed.kinds)}")
    family = read_object("family", family, _family)
    points = [_finite(p, (2,)) for p in probes]
    if len(points) != 2 or any(p is None for p in points):
        raise ConfigError("probes must be two points of two finite coordinates each, "
                          f"not {probes!r}")
    if variation not in routes:
        raise ConfigError(f"unknown variation {variation!r}; choose from {sorted(routes)}")
    tolerance = _tolerance((1e-3 if variation == "first" else 1e-2) if tolerance is None
                           else tolerance)

    def runner(st, case):
        return route_result(routes[variation](st.domain(domain_key, curve), mixed, family,
                                              points[0], points[1], st.greens_config()))

    return Case(id, "hadamard", "config-declared variation case", tolerance, runner,
                description=f"user case {id} ({variation} variation)")


def _assemble(section: str, specs, build) -> list[Case]:
    """Build config-declared cases; every fault in a spec is a ConfigError."""
    out = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise ConfigError(f"custom case must be an object, not {spec!r}")
        try:
            case = read_object(section, spec, build)
        except (ImportError, TypeError, ValueError) as exc:  # ImportError: no sympy
            raise ConfigError(f"custom case {spec.get('id')!r}: {exc}") from exc
        if not isinstance(case.case_id, str):
            raise ConfigError(f"custom case id must be a string, not {case.case_id!r}")
        if case.case_id in ("", ".", "..") or any(c in case.case_id for c in "/\\\0"):
            raise ConfigError(f"custom case id {case.case_id!r} is not a file name: it may not "
                              "be empty, '.' or '..', or hold '/', '\\' or NUL")
        out.append(case)
    return out


def _custom_liouville_cases(specs) -> list[Case]:
    """Assemble user-declared derivative cases from config dictionaries."""
    return _assemble("custom_liouville", specs, _liouville_case)


def _custom_hadamard_cases(specs) -> list[Case]:
    """Assemble user-declared variation route-agreement cases."""
    return _assemble("custom_hadamard", specs, _hadamard_case)


def resolve_cases(registry: list[Case], suite: str | None,
                  wanted: list[str]) -> list[Case]:
    by_id = {}
    for case in registry:
        if by_id.setdefault(case.case_id, case) is not case:
            raise ConfigError(f"case id {case.case_id!r} is declared twice")
    if wanted:
        missing = [w for w in wanted if w not in by_id]
        if missing:
            raise ConfigError(f"unresolved case ids: {missing}")
        return [by_id[w] for w in wanted]
    if suite in (None, "all"):
        return list(registry)
    if suite not in suites():
        raise ConfigError(f"unknown suite {suite!r}; choose from {suites() + ['all']}")
    return [c for c in registry if c.suite == suite]


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        given = dict(cfg["overrides"])
        for item in args.override or []:
            key, sep, value = item.partition("=")
            if not sep:
                raise ConfigError(f"override {item!r} is not key=value")
            given[key] = value
        overrides = read_object("override", given, _overrides)
        seed = cfg["seed"] if args.seed is None else args.seed
        registry = build_registry()
        registry += _custom_liouville_cases(cfg["custom_liouville"])
        registry += _custom_hadamard_cases(cfg["custom_hadamard"])
        cases = resolve_cases(registry, args.suite or cfg["suite"],
                              list(args.case or cfg["cases"]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out_dir or cfg["out_dir"]

    settings = CaseSettings(seed=seed, **overrides)
    rows = sorted((c.run(settings) for c in cases), key=lambda r: r.case_id)
    payload = write_reports(rows, out_dir, seed, overrides)

    width = max(len(r.case_id) for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{r.error}]" if r.error else ""
        print(f"{status}  {r.case_id:<{width}}  err={r.err:.3e}  "
              f"tol<={r.tolerance:g}  ({r.wall_time_s:.2f}s){extra}")
    n_fail = sum(not r.passed for r in rows)
    print(f"{len(rows) - n_fail}/{len(rows)} cases passed; reports in {out_dir}/")
    if any(r.solver_failed for r in rows):
        return EXIT_SOLVER
    return EXIT_OK if payload["all_passed"] else EXIT_CASE_FAILED


def cmd_list(args) -> int:
    registry = build_registry()
    width = max(len(c.case_id) for c in registry)
    for c in registry:
        bound = f"err <= {c.tolerance:g}"
        print(f"{c.case_id:<{width}}  [{c.suite:9s}]  {bound:<16s}  {c.formula}")
    print(f"{len(registry)} cases")
    return EXIT_OK


def cmd_describe(args) -> int:
    registry = {c.case_id: c for c in build_registry()}
    case = registry.get(args.case_id)
    if case is None:
        print(f"config error: unknown case {args.case_id!r}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"id:         {case.case_id}")
    print(f"suite:      {case.suite}")
    print(f"formula:    {case.formula}")
    print(f"tolerance:  err <= {case.tolerance:g}")
    print(f"about:      {case.description}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shapelab",
        description="Cross-verification suites for moving-domain integral "
                    "derivatives and Green's-function variations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run verification cases")
    run_p.add_argument("--suite", choices=suites() + ["all"], default=None)
    run_p.add_argument("--case", action="append", help="case id (repeatable)")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out-dir", default=None)
    run_p.add_argument("--config", default=None, help="JSON config file")
    run_p.add_argument("--override", action="append",
                       help="key=value discretization override (m, n_charges)")
    run_p.set_defaults(func=cmd_run)

    list_p = sub.add_parser("list-cases", help="list the built-in registry")
    list_p.set_defaults(func=cmd_list)

    desc_p = sub.add_parser("describe-case", help="show one case in detail")
    desc_p.add_argument("case_id")
    desc_p.set_defaults(func=cmd_describe)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
