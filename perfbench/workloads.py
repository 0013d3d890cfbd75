"""Seeded generators for the benchmark's shapelab run configs.

Each generator returns a config dict in the CLI's public schema (``suite``,
``seed``, ``workers``, ``overrides``, ``custom_liouville``,
``custom_hadamard``); the program sees nothing but that config.  Inputs are
kept inside the documented preconditions by rule, never by trying a seed
and keeping the cases that pass:

* flow families stay under ``FlowFamily.t_max`` because every FD ladder
  abscissa is at most 2 * 5e-2 = 0.1;
* Taylor families cannot fold the domain: their coefficients are scaled so
  that ``t (|DS| + t |DR| / 2) <= 1/2`` on a disk covering the domain for
  every ladder t, which keeps ``det(I + t DS + t^2/2 DR) > 0``;
* Green's-function probes keep 0.15 from every boundary of every deformed
  domain on the ladder and 0.2 from each other, the rule of the registry's
  ``cases._probe_pair``.

The case structure is fixed (which kinds, domains and families appear, and
how often), so that the work done per run does not depend on the seed;
the seed draws only coefficients, expressions, directions and probe angles.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("registry", "moving-integrals", "green-variations")

# Largest |t| any FD ladder evaluates: 2h for the finest five-point stencil's
# widest step, with h = 5e-2 for second derivatives (1e-2 for first).
T_LADDER = {"first": 2e-2, "second": 1e-1}
PROBE_MARGIN = 0.15
PROBE_SEPARATION = 0.2

# Domains of the moving-integral cases with the radius of a disk about the
# origin that covers each one (used by the no-fold rule).
MI_DOMAINS = {
    "ellipse": ({"name": "ellipse", "a": 2.0, "b": 1.0}, 2.0),
    "star": ({"name": "star", "r0": 1.0, "eps": 0.2, "k": 3}, 1.2),
    "circle": ({"name": "circle", "r": 1.0}, 1.0),
}
MI_KINDS = ("first_volume", "second_volume", "first_area", "second_area",
            "flux_first", "flux_second")
MI_TOLERANCE = {"first": 1e-4, "second": 1e-2}
FLOW_SCALE = 0.25
TAYLOR_SCALE = 0.3
N_SCALAR_POOL = 4
N_VECTOR_POOL = 2

GV_DISCRETIZATION = {"m": 256, "n_charges": 192}
GV_BOUNDARIES = {
    "disk": ({"name": "circle", "r": 1.0}, ["dirichlet"]),
    "annulus-dn": ({"name": "annulus", "r_in": 0.5, "r_out": 1.0},
                   ["dirichlet", "neumann"]),
    "annulus-nd": ({"name": "annulus", "r_in": 0.5, "r_out": 1.0},
                   ["neumann", "dirichlet"]),
}

REGISTRY_SEED = 7


def generate(workload: str, seed: int) -> dict:
    """Config for ``workload``; the same seed gives the same config."""
    if workload == "registry":
        return registry_config()
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "moving-integrals":
        cfg = moving_integrals_config(rng, seed)
    elif workload == "green-variations":
        cfg = green_variations_config(rng, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # Without a case list the CLI would run the whole registry as well.
    cfg["cases"] = case_ids(cfg)
    return cfg


def dumps(cfg: dict) -> str:
    return json.dumps(cfg, indent=1, sort_keys=True) + "\n"


def case_ids(cfg: dict) -> list[str]:
    """Ids of the config-declared cases, in declaration order."""
    return ([c["id"] for c in cfg.get("custom_liouville", [])]
            + [c["id"] for c in cfg.get("custom_hadamard", [])])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def registry_config() -> dict:
    """The north-star run ``shapelab run --suite all --seed 7`` at CLI defaults.

    The registry's randomized cases draw from the config seed, and the
    smallest headroom of the run belongs to such a case (the minor-expansion
    slope, 0.03 to 0.07 decades depending on the seed).  Holding the config
    seed at the north-star value keeps the run and its per-case errors the
    same for every benchmark seed, so that errors compare case by case
    between commits.
    """
    return {"suite": "all", "seed": REGISTRY_SEED, "workers": 1,
            "overrides": {"m": 128, "n_charges": 96}}


# ---------------------------------------------------------------------------
# moving-integrals
# ---------------------------------------------------------------------------

def _quadratic_terms(rng, scale: float) -> dict:
    """Random degree-2 polynomial velocity field as a config term table."""
    terms = {}
    for comp in (0, 1):
        for px in range(3):
            for py in range(3 - px):
                terms[(comp, px, py)] = round(scale * rng.uniform(-1.0, 1.0), 4)
    return terms


def _jacobian_bound(terms: dict, radius: float) -> float:
    """Row-sum bound of the field's Jacobian on the disk |x| <= radius."""
    worst = 0.0
    for comp in (0, 1):
        row = 0.0
        for (c, px, py), coeff in terms.items():
            if c != comp:
                continue
            if px:
                row += abs(coeff) * px * radius ** (px - 1 + py)
            if py:
                row += abs(coeff) * py * radius ** (px + py - 1)
        worst = max(worst, row)
    return worst


def _no_fold(s_terms: dict, r_terms: dict, radius: float, t: float):
    """Scale (S, R) together so that t |DS| + t^2/2 |DR| <= 1/2 on the disk."""
    growth = (t * _jacobian_bound(s_terms, radius)
              + 0.5 * t * t * _jacobian_bound(r_terms, radius))
    if growth <= 0.5:
        return s_terms, r_terms
    shrink = 0.5 / growth
    return ({k: round(v * shrink, 6) for k, v in s_terms.items()},
            {k: round(v * shrink, 6) for k, v in r_terms.items()})


def _field_spec(terms: dict) -> dict:
    return {"name": "polynomial",
            "terms": {f"{c},{px},{py}": v for (c, px, py), v in sorted(terms.items())}}


def _poly_expression(rng, monomials) -> str:
    parts = []
    for mono in monomials:
        coeff = round(rng.uniform(0.1, 0.9), 2) * (1 if rng.uniform() < 0.5 else -1)
        parts.append(f"{coeff}*{mono}" if mono != "1" else f"{coeff}")
    return " + ".join(parts).replace("+ -", "- ")


# Monomials of a pool expression: every space degree up to 2, and time
# dependence up to t^2 so that c_t and c_tt enter the second-order formulas.
SCALAR_MONOMIALS = ("1", "x1", "x2", "x1**2", "x1*x2", "x2**2", "t*x1",
                    "t*x2**2", "t**2")
VECTOR_MONOMIALS = ("x1", "x2", "x1*x2", "x1**2", "t*x2", "t**2*x1")


def moving_integrals_config(rng, seed: int) -> dict:
    """36 custom_liouville cases: 6 kinds x 3 domains x {flow, taylor}.

    Integrands come from a pool of 4 scalar expressions and 2 vector pairs,
    each used equally often in a seeded order, so expression strings repeat.
    """
    scalar_pool = [_poly_expression(rng, SCALAR_MONOMIALS) for _ in range(N_SCALAR_POOL)]
    vector_pool = [[_poly_expression(rng, VECTOR_MONOMIALS) for _ in range(2)]
                   for _ in range(N_VECTOR_POOL)]
    slots = [(kind, dom, fam) for kind in MI_KINDS for dom in MI_DOMAINS
             for fam in ("flow", "taylor")]
    n_scalar = sum(not kind.startswith("flux") for kind, _, _ in slots)
    scalar_order = list(rng.permutation(n_scalar) % N_SCALAR_POOL)
    vector_order = list(rng.permutation(len(slots) - n_scalar) % N_VECTOR_POOL)

    cases = []
    for kind, dom, fam in slots:
        domain, radius = MI_DOMAINS[dom]
        order = "second" if "second" in kind else "first"
        if fam == "flow":
            family = {"kind": "flow", "field": _field_spec(_quadratic_terms(rng, FLOW_SCALE))}
        else:
            s_terms, r_terms = _no_fold(_quadratic_terms(rng, TAYLOR_SCALE),
                                        _quadratic_terms(rng, TAYLOR_SCALE),
                                        radius, T_LADDER["second"])
            family = {"kind": "taylor", "field": _field_spec(s_terms),
                      "r_field": _field_spec(r_terms)}
        if kind.startswith("flux"):
            integrand = vector_pool[vector_order.pop()]
        else:
            integrand = scalar_pool[scalar_order.pop()]
        cases.append({"id": f"mi-{kind.replace('_', '-')}-{dom}-{fam}",
                      "kind": kind, "domain": dict(domain), "family": family,
                      "integrand": integrand, "tolerance": MI_TOLERANCE[order]})
    return {"seed": int(seed), "workers": 1, "custom_liouville": cases}


# ---------------------------------------------------------------------------
# green-variations
# ---------------------------------------------------------------------------

def _boundary_shift(field: dict, variation: str) -> float:
    """Largest boundary displacement |t S| over the variation's ladder.

    Every boundary point lies within radius 1, where the dilation moves a
    point by at most t; a translation moves every point by t |d|.
    """
    t = T_LADDER[variation]
    if field["name"] == "translation":
        return t * math.hypot(field["dx"], field["dy"])
    return t


def _probe_band(domain: dict, shift: float) -> tuple[float, float]:
    """Radii that stay PROBE_MARGIN inside every deformed boundary."""
    if domain["name"] == "annulus":
        lo = domain["r_in"] + shift + PROBE_MARGIN
        hi = domain["r_out"] - shift - PROBE_MARGIN
    else:
        lo, hi = 0.0, domain["r"] - shift - PROBE_MARGIN
    return lo, max(lo, hi)


def _probe_pair(rng, band) -> list[list[float]]:
    """Two probes on the middle circle of the band, at least 90 degrees apart.

    The distance to the boundary sets how well the traces are resolved, so
    it is the same for every seed; the seed draws the angles.  On the
    smallest band circle (radius 0.375) the pair is 0.53 or more apart.
    """
    r = 0.5 * (band[0] + band[1])
    a = rng.uniform(0.0, 2.0 * math.pi)
    b = a + rng.uniform(0.5 * math.pi, 1.5 * math.pi)
    return [[r * math.cos(a), r * math.sin(a)], [r * math.cos(b), r * math.sin(b)]]


def green_variations_config(rng, seed: int) -> dict:
    """12 custom_hadamard cases: {first, second} x 3 boundaries x 2 families.

    Boundaries are the Dirichlet disk and the mixed annulus in both
    orderings; families are the Taylor dilation and a Taylor translation by
    a unit vector in a seeded direction.  The discretization is raised to
    m=256, n_charges=192.
    """
    cases = []
    for variation in ("first", "second"):
        for boundary, (domain, mixed) in GV_BOUNDARIES.items():
            for fam in ("dilation", "translation"):
                if fam == "dilation":
                    field = {"name": "dilation"}
                else:
                    a = rng.uniform(0.0, 2.0 * math.pi)
                    field = {"name": "translation", "dx": math.cos(a), "dy": math.sin(a)}
                band = _probe_band(domain, _boundary_shift(field, variation))
                cases.append({"id": f"gv-{variation}-{boundary}-{fam}",
                              "domain": dict(domain), "mixed": list(mixed),
                              "family": {"kind": "taylor", "field": field},
                              "probes": _probe_pair(rng, band),
                              "variation": variation,
                              "tolerance": 1e-3 if variation == "first" else 1e-2})
    return {"seed": int(seed), "workers": 1, "overrides": dict(GV_DISCRETIZATION),
            "custom_hadamard": cases}
