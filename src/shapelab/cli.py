"""Config-driven runner for the verification case registry.

Subcommands: ``run``, ``list-cases``, ``describe-case``.  Runs are
deterministic given (config, seed): randomized cases seed their generators
from the global seed and the case id, rows are assembled in case-id order,
and report.json carries no timing data.

Exit codes: 0 all cases passed; 1 at least one case failed its tolerance;
2 configuration problem (bad file, unknown key, unresolved case); 3 a
solver diagnostic failure (collocation residual above the hard threshold).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geometry as geo
from . import hadamard as hd
from . import perturbation as pert
from .cases import (Case, CaseSettings, build_registry, route_result, suites,
                    variation_ops, variation_result)
from .integrands import IntegrandSpec, VectorIntegrandSpec
from .report import write_reports

EXIT_OK = 0
EXIT_CASE_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

CONFIG_KEYS = {"suite", "cases", "seed", "workers", "out_dir", "overrides",
               "custom_liouville", "custom_hadamard"}
OVERRIDE_KEYS = {"m", "n_charges"}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, kind, name in (("overrides", dict, "an object"), ("cases", list, "a list"),
                            ("custom_liouville", list, "a list"),
                            ("custom_hadamard", list, "a list")):
        if not isinstance(cfg.get(key, kind()), kind):
            raise ConfigError(f"{key} must be {name}, not {cfg[key]!r}")
    overrides = cfg.get("overrides", {})
    bad = set(overrides) - OVERRIDE_KEYS
    if bad:
        raise ConfigError(f"unknown override keys: {sorted(bad)}")
    # cases run one after another in this process; "workers": 1 is still accepted
    if cfg.get("workers", 1) != 1:
        raise ConfigError(f"workers must be 1, not {cfg['workers']!r}")
    return cfg


def _family_from_config(fam_spec):
    field = pert.make_field(**fam_spec["field"])
    kind = fam_spec.get("kind", "flow")
    if kind == "flow":
        return pert.FlowFamily(field)
    if kind == "taylor":
        r_field = pert.make_field(**fam_spec["r_field"]) if "r_field" in fam_spec else None
        return pert.TaylorFamily(field, r_field)
    raise ConfigError(f"unknown family kind {kind!r}; choose from ['flow', 'taylor']")


def _curve(spec):
    """The curve of a custom case, and the key under which the run shares its
    Domain with every case that declares the same domain."""
    return (geo.make_curve(**spec["domain"]),
            ("config", json.dumps(spec["domain"], sort_keys=True)))


def _liouville_case(spec) -> Case:
    case_id, kind = spec["id"], spec["kind"]
    kinds = sorted(variation_ops())
    if kind not in kinds:
        raise ConfigError(f"unknown kind {kind!r}; choose from {kinds}")
    curve, domain_key = _curve(spec)
    family = _family_from_config(spec["family"])
    expr = spec["integrand"]
    flux = kind.startswith("flux")
    if flux and (isinstance(expr, str) or len(expr) != 2):
        raise ConfigError(f"a {kind} integrand is a list of 2 expressions, not {expr!r}")
    try:
        import sympy as sp  # only user-written integrands need it
    except ImportError as exc:
        raise ConfigError(f"integrand {expr!r} needs sympy, which the optional "
                          "extra shapelab[expressions] installs") from exc
    try:
        for item in (expr if flux else [expr]):
            sp.sympify(item)
    except sp.SympifyError as exc:
        raise ConfigError(f"integrand {expr!r} does not parse: {exc}") from exc
    tolerance = float(spec.get("tolerance", 1e-4))
    ladder = tuple(spec["ladder"]) if "ladder" in spec else None

    def runner(st, case):
        # sympy compilation runs with the case, not during config resolution
        if flux:
            integrand = VectorIntegrandSpec.from_expressions(*expr)
        else:
            integrand = IntegrandSpec.from_expression(expr)
        return variation_result(kind, st.domain(domain_key, curve), family, integrand,
                                ladder=ladder)

    return Case(case_id, "liouville", "config-declared derivative case",
                tolerance, runner, description=f"user case {case_id} ({kind})")


def _hadamard_case(spec) -> Case:
    routes = {"first": hd.delta_n_routes, "second": hd.delta2_n_routes}
    case_id = spec["id"]
    curve, domain_key = _curve(spec)
    mixed = geo.MixedBoundary(tuple(spec["mixed"]))
    if len(mixed.kinds) != curve.n_components:
        raise ConfigError(f"mixed needs {curve.n_components} entries, one per "
                          f"boundary component, not {len(mixed.kinds)}")
    family = _family_from_config(spec["family"])
    probes = [np.asarray(p, dtype=float) for p in spec["probes"]]
    if len(probes) != 2:
        raise ConfigError("exactly two probes required")
    variation = spec.get("variation", "first")
    if variation not in routes:
        raise ConfigError(f"unknown variation {variation!r}; choose from {sorted(routes)}")
    tolerance = float(spec.get("tolerance", 1e-3 if variation == "first" else 1e-2))
    kwargs = {"ladder": tuple(spec["ladder"])} if spec.get("ladder") else {}

    def runner(st, case):
        return route_result(routes[variation](st.domain(domain_key, curve), mixed, family,
                                              probes[0], probes[1], st.greens_config(),
                                              **kwargs))

    return Case(case_id, "hadamard", "config-declared variation case",
                tolerance, runner,
                description=f"user case {case_id} ({variation} variation)")


def _assemble(specs, build) -> list[Case]:
    """Build config-declared cases; every fault in a spec is a ConfigError."""
    out = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise ConfigError(f"custom case must be an object, not {spec!r}")
        try:
            out.append(build(spec))
        except KeyError as exc:
            raise ConfigError(f"custom case {spec.get('id')!r}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"custom case {spec.get('id')!r}: {exc}") from exc
    return out


def _custom_liouville_cases(specs) -> list[Case]:
    """Assemble user-declared derivative cases from config dictionaries."""
    return _assemble(specs, _liouville_case)


def _custom_hadamard_cases(specs) -> list[Case]:
    """Assemble user-declared variation route-agreement cases."""
    return _assemble(specs, _hadamard_case)


def resolve_cases(registry: list[Case], suite: str | None,
                  wanted: list[str]) -> list[Case]:
    by_id = {c.case_id: c for c in registry}
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


def _integer(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, not {value!r}") from exc


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {key: _integer(key, value)
                     for key, value in cfg.get("overrides", {}).items()}
        for item in args.override or []:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not key=value")
            key, value = item.split("=", 1)
            if key not in OVERRIDE_KEYS:
                raise ConfigError(f"unknown override key {key!r}")
            overrides[key] = _integer(key, value)
        seed = args.seed if args.seed is not None else _integer("seed", cfg.get("seed", 0))
        registry = build_registry()
        registry += _custom_liouville_cases(cfg.get("custom_liouville", []))
        registry += _custom_hadamard_cases(cfg.get("custom_hadamard", []))
        suite = args.suite or cfg.get("suite")
        wanted = list(args.case or []) or list(cfg.get("cases", []))
        cases = resolve_cases(registry, suite, wanted)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out_dir or cfg.get("out_dir", "reports")

    settings = CaseSettings(seed=seed, **overrides)
    rows = sorted((c.run(settings) for c in cases), key=lambda r: r.case_id)
    payload = write_reports(rows, out_dir, seed, overrides)

    width = max(len(r.case_id) for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  [{r.error}]" if r.error else ""
        print(f"{status}  {r.case_id:<{width}}  err={r.err:.3e}  "
              f"tol{'>=' if r.mode == 'ge' else '<='}{r.tolerance:g}  "
              f"({r.wall_time_s:.2f}s){extra}")
    n_fail = sum(not r.passed for r in rows)
    print(f"{len(rows) - n_fail}/{len(rows)} cases passed; reports in {out_dir}/")
    if any(r.solver_failed for r in rows):
        return EXIT_SOLVER
    return EXIT_OK if payload["all_passed"] else EXIT_CASE_FAILED


def cmd_list(args) -> int:
    registry = build_registry()
    width = max(len(c.case_id) for c in registry)
    for c in registry:
        bound = f"slope >= {c.tolerance:g}" if c.mode == "ge" else f"err <= {c.tolerance:g}"
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
    bound = ">=" if case.mode == "ge" else "<="
    print(f"tolerance:  err {bound} {case.tolerance:g}")
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
