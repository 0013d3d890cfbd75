"""Built-in verification case registry.

Every case evaluates one formula against declared oracles and reports a
single scalar ``err``, judged by ``err <= tolerance``; a row with an FD
oracle puts the FD record of ``fd_details`` in its ``details``.
Randomized cases derive their generator deterministically from the global
seed and the case id, so reports are reproducible regardless of case order.
Every integrand is a polynomial built from coefficient arrays, so the
registry never imports sympy.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import geometry as geo
from . import greens as gr
from . import hadamard as hd
from . import liouville as lv
from . import perturbation as pert
from ._fd import FDResult, derivative_ladder
from .integrands import (IntegrandSpec, VectorIntegrandSpec,
                         normal_scaled_integrand, random_polynomial_integrand)
from .report import ReportRow

TWO_PI = 2.0 * np.pi


@dataclass
class CaseSettings:
    """A run's settings, and its memo of Domains: every case of a run that
    names one curve gets one Domain, with one interior rule, one set of
    charge rings and one base Green's solver per boundary assignment."""

    seed: int = 0
    m: int = 128
    n_charges: int = 96
    _domains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def domain(self, key, curve: geo.BoundaryCurve) -> geo.Domain:
        """The run's Domain at ``m`` of the curve that the hashable ``key`` names;
        ``curve`` is read on the first request only."""
        if key not in self._domains:
            self._domains[key] = geo.Domain(curve, m=self.m)
        return self._domains[key]

    def rng(self, case_id: str) -> np.random.Generator:
        return np.random.default_rng(int(self.seed) * 2654435761 % 2 ** 31
                                     + zlib.crc32(case_id.encode()))

    def greens_config(self) -> gr.GreensConfig:
        return gr.GreensConfig(n_charges=self.n_charges)


@dataclass(frozen=True)
class Case:
    case_id: str
    suite: str
    formula: str
    tolerance: float
    runner: Callable
    description: str = ""

    def run(self, settings: CaseSettings) -> ReportRow:
        start = time.perf_counter()
        try:
            result = self.runner(settings, self)
        except Exception as exc:  # recorded, surfaced by the CLI exit code
            return ReportRow(self.case_id, self.suite, self.formula,
                             float("nan"), {}, float("nan"), self.tolerance,
                             False, {}, time.perf_counter() - start,
                             error=f"{type(exc).__name__}: {exc}",
                             solver_failed=isinstance(exc, gr.GreensAccuracyError))
        value, oracles, err = result[0], result[1], result[2]
        details = result[3] if len(result) > 3 else {}
        return ReportRow(self.case_id, self.suite, self.formula, float(value),
                         oracles, float(err), self.tolerance,
                         bool(err <= self.tolerance), details,
                         time.perf_counter() - start)


# ---------------------------------------------------------------------------
# formula and route results as report rows
# ---------------------------------------------------------------------------

def variation_ops() -> dict:
    """Config kind -> (formula, integral kind of its FD oracle, derivative order).

    Built per call, so that the table holds whatever the module attributes
    are at that time (a tracer may wrap them after import).
    """
    return {"first_volume": (lv.first_volume, "volume", 1),
            "second_volume": (lv.second_volume, "volume", 2),
            "first_area": (lv.first_area, "area", 1),
            "second_area": (lv.second_area, "area", 2),
            "flux_first": (lv.boundary_flux_first, "flux", 1),
            "flux_second": (lv.boundary_flux_second, "flux", 2)}


def variation_result(kind: str, domain, family, integrand, ladder=None, analytic=None):
    """(value, oracles, err, details) of one Liouville formula.

    The formula of ``kind`` is checked against the FD derivative of its
    pulled-back integral and, when given, a closed-form ``analytic`` value.
    err is measured against the closed form when there is one, else against
    FD, and normalized by 1 + |formula|.  The FD record goes to details.
    """
    formula, integral, order = variation_ops()[kind]
    value = formula(domain, family, integrand)
    fd = lv.fd_reference(integral, domain, family, integrand, order=order, ladder=ladder)
    oracles = {"fd_richardson": fd.value}
    reference = fd.value
    if analytic is not None:
        oracles["analytic"] = reference = analytic
    err = abs(value - reference) / (1.0 + abs(value))
    return value, oracles, err, fd_details(fd)


def fd_details(fd: FDResult) -> dict:
    """The FD record of a report row: the ladder, its estimates when they are
    scalars (the row's convergence table), the observed order (a number, or
    null and the reason) and the ladder's warnings."""
    observed = fd.observed_order
    details = {"ladder": list(fd.ladder), "fd_observed_order": observed,
               "fd_warnings": list(fd.warnings)}
    if np.ndim(fd.value) == 0:
        details["estimates"] = list(fd.estimates)
    if observed is None or np.isinf(observed):
        details["fd_observed_order"] = None
        details["fd_observed_order_reason"] = (
            "too few steps or a zero ladder difference" if observed is None
            else "ladder differences at rounding level")
    return details


def route_result(tri: hd.RouteTriangle, fd: FDResult | None = None, **checked):
    """(value, oracles, err, details) of a Hadamard route run.

    The oracles are the BVP and tangent routes and every further value
    ``checked``, by name; err is ``RouteTriangle.err`` over all of them.
    The solves' summary and the probe warnings on the base boundary (a
    list, empty without any) go to details.  A row that also re-solves
    along an FD ladder passes it as ``fd``: its value is checked as ``fd``,
    and the ladder's FD record joins details.
    """
    details = {**tri.solve_details(), "probe_warnings": list(tri.probe_warnings)}
    if fd is not None:
        checked["fd"] = fd.value
        details.update(fd_details(fd))
    return (tri.formula, {"bvp": tri.bvp, "tangent": tri.tangent, **checked},
            tri.err(*checked.values()), details)


# ---------------------------------------------------------------------------
# jacobian suite
# ---------------------------------------------------------------------------

def _jacobian_dilation_det(st, case):
    fam = pert.TaylorFamily(pert.dilation())
    pts = np.array([[0.3, -0.2], [0.7, 0.5], [-0.4, 0.1]])
    d1, d2 = pert.det_derivatives(fam, pts)
    err = max(np.max(np.abs(d1 - 2.0)), np.max(np.abs(d2 - 2.0)))
    return 2.0, {"analytic": 2.0}, err


def _jacobian_rotation_det(st, case):
    fam = pert.FlowFamily(pert.rotation())
    pts = np.array([[0.3, -0.2], [0.7, 0.5]])
    d1, d2 = pert.det_derivatives(fam, pts)
    err = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
    return 0.0, {"analytic": 0.0}, err


def _jacobian_poly_fd(formula, quantity):
    """Both t-derivatives of a Jacobian quantity at a random point of three
    random polynomial flows, against the FD engine at its default ladders.

    ``formula(family, points)`` gives the first and second derivatives, and
    ``quantity(DT_t)`` is the value that FD differentiates.  The row reports
    the draw, the order and (for a matrix) the entry with the largest gap.
    """
    def runner(st, case):
        rng = st.rng(case.case_id)
        worst = None
        for draw in range(3):
            fam = pert.FlowFamily(pert.random_polynomial_field(rng, degree=2))
            x0 = rng.uniform(-0.5, 0.5, size=(1, 2))
            for order, analytic in enumerate(formula(fam, x0), start=1):
                fd = derivative_ladder(lambda t: quantity(fam.map_jacobian(x0, t)[0]),
                                       order=order)
                gaps = np.abs(analytic[0] - fd.value)
                entry = np.unravel_index(np.argmax(gaps), gaps.shape)
                if worst is None or gaps[entry] > worst[0]:
                    worst = (gaps[entry], analytic[0][entry], fd, entry, draw, order)
        gap, value, fd, entry, draw, order = worst
        where = {"draw": draw, "order": order}
        if entry:
            where["entry"] = [int(i) for i in entry]
        return (float(value), {"fd": float(np.asarray(fd.value)[entry])}, float(gap),
                {**where, **fd_details(fd)})

    return runner


def _jacobian_dilation_inverse(st, case):
    fam = pert.TaylorFamily(pert.dilation())
    pts = np.array([[0.3, -0.2]])
    j1, j2 = pert.inverse_jacobian_derivatives(fam, pts)
    err = max(np.max(np.abs(j1[0] + np.eye(2))), np.max(np.abs(j2[0] - 2 * np.eye(2))))
    return -1.0, {"analytic": -1.0}, err


def _jacobian_minor(st, case):
    rng = st.rng(case.case_id)
    worst = None
    for draw in range(20):
        d = int(rng.integers(2, 5))
        ds = rng.integers(-3, 4, size=(d, d)).astype(float)
        dr = rng.integers(-3, 4, size=(d, d)).astype(float)
        i = int(rng.integers(0, d))
        j = int(rng.integers(0, d))
        model = pert._predicted_minor(ds, dr, i, j)
        exact = pert.minor_polynomial(ds, dr, i, j)[:3]
        gap = float(np.max(np.abs(model - exact)))
        if worst is None or gap > worst[0]:
            worst = (gap, model[2], exact[2], {"worst_draw": draw, "d": d, "minor": [i, j]})
    gap, value, oracle, where = worst
    details = {"draws": 20, **where,
               "exactness": "integer DS and DR make every coefficient a dyadic "
                            "rational, which floating point holds exactly"}
    # the reported coefficients are those of the draw with the largest gap
    return value, {"exact_t2_coefficient": oracle}, gap, details


def _jacobian_flow_acceleration(st, case):
    dom = geo.Domain(geo.elliptical_domain(2.0, 1.0), m=64)
    fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
    grid = dom.grids[0]
    analytic = pert.advective_normal_component(pert.boundary_data(fam, grid), grid)
    fd = derivative_ladder(lambda t: fam.field(fam.map(grid.nodes, t)), order=1)
    rho2_kinematic = np.einsum("ni,ni->n", fd.value, grid.normal)
    err = float(np.max(np.abs(rho2_kinematic - analytic)))
    return (float(np.max(np.abs(analytic))),
            {"kinematic_fd": float(np.max(np.abs(rho2_kinematic)))}, err, fd_details(fd))


# ---------------------------------------------------------------------------
# liouville suite
# ---------------------------------------------------------------------------

REGISTRY_CURVES = {"disk": geo.disk(1.0), "ellipse": geo.elliptical_domain(2.0, 1.0),
                   "star": geo.star_domain(1.0, 0.2, 3), "annulus": geo.annulus(0.5, 1.0)}


def _domain(st, kind: str) -> geo.Domain:
    return st.domain(kind, REGISTRY_CURVES[kind])


class GreensBoundary(NamedTuple):
    """A registry boundary of the Green's-function cases: the boundary
    assignment, the probe pair (x, y) and the family of its route cases."""

    mixed: geo.MixedBoundary
    probes: tuple
    family: pert.PerturbationFamily


# Probes are >= 0.15 from every boundary for every ladder t (deformations
# move the boundary by at most 0.1 in the shipped cases), and >= 0.2 apart.
GREENS_BOUNDARIES = {
    "disk": GreensBoundary(geo.all_dirichlet(1), (np.array([0.3, 0.0]), np.array([0.0, 0.4])),
                           pert.TaylorFamily(pert.dilation())),
    "annulus": GreensBoundary(geo.MixedBoundary(("dirichlet", "neumann")),
                              (np.array([0.0, 0.75]), np.array([-0.74, -0.1])),
                              pert.TaylorFamily(pert.translation(1.0, 0.0))),
}


def _base_solver(st, kind: str, config: gr.GreensConfig | None = None) -> gr.GreensSolver:
    """The run's base Green's solver on the registry boundary ``kind``, by
    default at the run's config."""
    return gr.base_solver(_domain(st, kind), GREENS_BOUNDARIES[kind].mixed,
                          config or st.greens_config())


def _poly(terms: dict) -> np.ndarray:
    """Coefficient array of the sum of c x1**px x2**py t**pt over {(px, py, pt): c}."""
    c = np.zeros(np.max(list(terms), axis=0) + 1)
    for power, coeff in terms.items():
        c[power] = coeff
    return c


# the position field (x1, x2)
POSITION = (_poly({(1, 0, 0): 1.0}), _poly({(0, 1, 0): 1.0}))
# (0.4 x1**2 + 0.3 x2 + 0.2 t x1, 0.5 x1 x2 - 0.1 x1 + 0.3 t)
RANDOM_FLUX = (_poly({(2, 0, 0): 0.4, (0, 1, 0): 0.3, (1, 0, 1): 0.2}),
               _poly({(1, 1, 0): 0.5, (1, 0, 0): -0.1, (0, 0, 1): 0.3}))


def _liouville_case(kind, domain, family, integrand, analytic):
    def runner(st, case):
        return variation_result(kind, _domain(st, domain), family(), integrand(),
                                analytic=analytic)

    return runner


def _liouville_random(order: int, index: int):
    domains = ["disk", "ellipse", "star"]
    kinds = [("first_volume", "second_volume"), ("first_area", "second_area"),
             ("flux_first", "flux_second")]

    def runner(st, case):
        rng = st.rng(case.case_id)
        dom = _domain(st, domains[index % 3])
        if index % 2 == 0:
            family = pert.FlowFamily(pert.random_polynomial_field(rng, degree=2,
                                                                  scale=0.25))
        else:
            family = pert.TaylorFamily(pert.random_polynomial_field(rng, degree=2, scale=0.3),
                                       pert.random_polynomial_field(rng, degree=2, scale=0.3))
        kind = kinds[index % 3][order - 1]
        if kind.startswith("flux"):
            integrand = VectorIntegrandSpec.from_coefficients(*RANDOM_FLUX)
        else:
            integrand = random_polynomial_integrand(rng, degree=2, time_degree=2)
        return variation_result(kind, dom, family, integrand)

    return runner


def _liouville_consistency(st, case):
    dom = _domain(st, "disk")
    c = IntegrandSpec.from_coefficients(_poly({(0, 0, 0): 1.0, (1, 0, 0): 0.3,
                                               (0, 2, 0): 0.2}))
    fam = pert.TaylorFamily(pert.PolynomialField({(0, 1, 0): 0.5, (0, 0, 1): -0.2,
                                                  (1, 0, 0): 0.3, (1, 1, 1): 0.4}))
    collar = geo.collar_extend(dom.grids[0], np.ones(dom.grids[0].size))
    a = normal_scaled_integrand(c, collar)
    area = lv.first_area(dom, fam, c)
    flux = lv.boundary_flux_first(dom, fam, a)
    return area, {"flux_route": flux}, abs(area - flux)


def _liouville_nu_dot(st, case):
    dom = _domain(st, "disk")
    fam = pert.TaylorFamily(pert.translation(1.0, 0.0))
    grid = dom.grids[0]
    nd = lv.nu_dot(dom, fam)[0]
    exact = np.sin(grid.thetas)[:, None] * grid.tangent
    err = float(np.max(np.abs(nd - exact)))
    fd = lv.nu_dot_fd(dom, fam)[0]
    fd_err = float(np.max(np.abs(nd - fd.value)))
    ortho = float(np.max(np.abs(np.einsum("ni,ni->n", nd, grid.normal))))
    return (float(np.max(np.abs(nd))), {"fd_max_gap": fd_err, "normal_component": ortho},
            max(err, ortho, fd_err), fd_details(fd))


# ---------------------------------------------------------------------------
# greens suite
# ---------------------------------------------------------------------------

def _greens_disk_analytic(st, case):
    solver = _base_solver(st, "disk")
    y = np.array([0.3, 0.0])
    ev = solver.solve(y)
    rng = st.rng(case.case_id)
    worst, count = 0.0, 0
    while count < 20:
        r = 0.85 * np.sqrt(rng.uniform())
        a = rng.uniform(0, TWO_PI)
        x = np.array([r * np.cos(a), r * np.sin(a)])
        if np.linalg.norm(x - y) < 0.1:
            continue
        worst = max(worst, abs(ev.value(x)[0] - gr.disk_greens(x, y)))
        count += 1
    return float(ev.value(np.array([[0.0, 0.5]]))[0]), {}, worst, {"analytic_probes": 20}


def _greens_poisson_kernel(st, case):
    solver = _base_solver(st, "disk")
    y = np.array([0.3, 0.0])
    ev = solver.solve(y)
    kernel = gr.disk_poisson_kernel(solver.domain.grids[0].thetas, y)
    err = float(np.max(np.abs(-ev.normal_trace(0) - kernel) / kernel))
    return float(kernel.max()), {"classical_kernel": float(kernel.max())}, err


def _interior_probe(rng, kind: str) -> np.ndarray:
    """Random probe at least 0.15 from every boundary component."""
    r = rng.uniform(0.66, 0.84) if kind == "annulus" else 0.85 * np.sqrt(rng.uniform())
    a = rng.uniform(0.0, TWO_PI)
    return np.array([r * np.cos(a), r * np.sin(a)])


def _greens_symmetry(st, case):
    worst = 0.0
    for kind in GREENS_BOUNDARIES:
        solver = _base_solver(st, kind)
        rng = st.rng(case.case_id + kind)
        pairs = []
        while len(pairs) < 10:
            x = _interior_probe(rng, kind)
            y = _interior_probe(rng, kind)
            if np.linalg.norm(x - y) >= 0.2:
                pairs.append((x, y))
        ev = solver.solve(np.reshape(pairs, (-1, 2)))  # poles x0, y0, x1, y1, ...
        for j, (x, y) in enumerate(pairs):
            worst = max(worst, abs(ev[2 * j].value(y)[0] - ev[2 * j + 1].value(x)[0]))
    return 0.0, {}, worst, {"pairs": 20}


def _greens_annulus_flux(st, case):
    solver = _base_solver(st, "annulus")
    ev = solver.solve(np.array([0.0, 0.72]))
    flux = solver.components[0].grid.integrate(ev.normal_trace(0))
    return flux, {"analytic": -1.0}, abs(flux + 1.0)


def _greens_representation(st, case):
    worst = 0.0
    probes = np.array([[0.3, 0.2], [-0.4, 0.1]])
    # 1, x1**2 - x2**2 and (x1**2 + x2**2)/4
    solutions = [IntegrandSpec.from_coefficients(_poly(terms))
                 for terms in ({(0, 0, 0): 1.0}, {(2, 0, 0): 1.0, (0, 2, 0): -1.0},
                               {(2, 0, 0): 0.25, (0, 2, 0): 0.25})]
    for rep in gr.representation_check(_domain(st, "disk"), GREENS_BOUNDARIES["disk"].mixed,
                                       solutions, probes, st.greens_config()):
        worst = max(worst, rep.max_error)
    rep = gr.representation_check(_domain(st, "annulus"), GREENS_BOUNDARIES["annulus"].mixed,
                                  IntegrandSpec.constant(1.0),
                                  np.array([[0.0, 0.7], [0.6, 0.3]]),
                                  st.greens_config())
    worst = max(worst, rep.max_error)
    return 1.0, {}, worst, {"manufactured": 4}


def _greens_harmonicity(st, case):
    solver = _base_solver(st, "disk")
    ev = solver.solve(np.array([0.3, 0.0]))
    rng = st.rng(case.case_id)
    worst = 0.0
    for _ in range(5):
        center = rng.uniform(-0.4, 0.4, size=2)
        radius = rng.uniform(0.1, 0.3)
        th = TWO_PI * np.arange(256) / 256
        circle = center + radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
        mean = float(ev.corrector_value(circle).mean())
        worst = max(worst, abs(mean - ev.corrector_value(center[None, :])[0]))
    return 0.0, {}, worst, {"circles": 5}


def _greens_charge_convergence(st, case):
    y = np.array([0.0, 0.72])
    res = {}
    for n in (32, 64):
        cfg = gr.GreensConfig(n_charges=n, fail_threshold=1.0)
        ev = _base_solver(st, "annulus", cfg).solve(y)
        res[n] = ev.diagnostics.residual
    ratio = res[64] / max(res[32], 1e-300)
    err = 0.0 if (ratio <= 0.1 or res[64] <= 1e-9) else ratio
    return res[64], {"residual_32": res[32], "residual_64": res[64]}, err


def _greens_perturbed_scaling(st, case):
    base = _base_solver(st, "disk")
    fam = pert.TaylorFamily(pert.dilation())
    t = 0.05
    y = np.array([0.0, 0.4])
    ev = base.moved(fam, t).solve(y)
    rng = st.rng(case.case_id)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, size=2)
        if min(np.linalg.norm(x - y), np.linalg.norm(x)) < 0.15:
            continue
        exact = gr.disk_greens(x / (1 + t), y / (1 + t))
        worst = max(worst, abs(ev.value(x)[0] - exact))
    return t, {"scaling_identity": 0.0}, worst


# ---------------------------------------------------------------------------
# hadamard suite
# ---------------------------------------------------------------------------

def _chi_sigma_three_form(st, case):
    dom = geo.Domain(geo.elliptical_domain(2.0, 1.0), m=max(st.m, 256))
    fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
    co = hd.chi_sigma(dom, fam)
    display = max(float(np.max(np.abs(r))) for r in co.chi_display_residual)
    return 0.0, {}, co.max_discrepancy, {"forms": 3, "max_chi_display_residual": display}


def _chi_sigma_dilation(st, case):
    dom = _domain(st, "disk")
    co = hd.chi_sigma(dom, pert.TaylorFamily(pert.dilation()))
    err = max(float(np.max(np.abs(co.chi[0] + 1.0))),
              float(np.max(np.abs(co.sigma[0]))), co.max_discrepancy)
    return -1.0, {"analytic_chi": -1.0, "analytic_sigma": 0.0}, err


def _chi_sigma_normal(st, case):
    dom = _domain(st, "disk")
    rho_bar = 0.3
    fam = pert.NormalFamily(dom.grids[0], rho_bar * np.ones(dom.grids[0].size))
    co = hd.chi_sigma(dom, fam)
    err = max(float(np.max(np.abs(co.chi[0] + rho_bar ** 2))),
              float(np.max(np.abs(co.sigma[0]))))
    return -rho_bar ** 2, {"analytic_chi": -rho_bar ** 2, "analytic_sigma": 0.0}, err


def _delta_n_dilation(st, case):
    x, y = GREENS_BOUNDARIES["disk"].probes
    solver = _base_solver(st, "disk")
    val = hd.delta_n_formula(solver, pert.TaylorFamily(pert.dilation()),
                             solver.solve(np.stack([x, y])))
    oracle = hd.disk_dilation_delta_n(x, y, order=1)
    return val, {"scaling_oracle": oracle}, abs(val - oracle) / (1 + abs(oracle))


def _delta_n_rotation(st, case):
    x, y = GREENS_BOUNDARIES["disk"].probes
    solver = _base_solver(st, "disk")
    val = hd.delta_n_formula(solver, pert.FlowFamily(pert.rotation()),
                             solver.solve(np.stack([x, y])))
    return val, {"symmetry": 0.0}, abs(val)


def _route_triangle(order: int, kind: str):
    """The three routes of one variation.  The disk checks them against the
    scaling oracle, the annulus, whose family is a translation, against the
    translation transport; neither re-solves."""
    def runner(st, case):
        routes = hd.delta_n_routes if order == 1 else hd.delta2_n_routes
        mixed, (x, y), fam = GREENS_BOUNDARIES[kind]
        tri = routes(_domain(st, kind), mixed, fam, x, y, st.greens_config())
        if kind == "disk":
            return route_result(tri, scaling_oracle=hd.disk_dilation_delta_n(x, y, order))
        transport = hd.translation_transport(_base_solver(st, kind), fam, x, y)
        return route_result(tri, transport=transport[order - 1])

    return runner


def _delta2_rotation(st, case):
    x, y = GREENS_BOUNDARIES["disk"].probes
    tri = hd.delta2_n_routes(_domain(st, "disk"), GREENS_BOUNDARIES["disk"].mixed,
                             pert.FlowFamily(pert.rotation()), x, y, st.greens_config())
    return route_result(tri, symmetry=0.0)


def _gradient_pairing(kind: str):
    def runner(st, case):
        _, (x, y), fam = GREENS_BOUNDARIES[kind]
        solver = _base_solver(st, kind)
        ev = solver.solve(np.stack([x, y]))
        udot, _ = hd.delta_n_bvp(solver, fam, ev)
        lhs, rhs, res = hd.gradient_pairing_residual(solver, fam, ev, udot)
        return lhs, {"boundary_route": rhs}, res

    return runner


def _pole_symmetry(st, case):
    _, (x, y), fam = GREENS_BOUNDARIES["annulus"]
    solver = _base_solver(st, "annulus")
    ev = solver.solve(np.stack([x, y]))
    d1 = hd.delta_n_formula(solver, fam, ev)
    d1s = hd.delta_n_formula(solver, fam, ev[::-1])
    udot, _ = hd.delta_n_bvp(solver, fam, ev)
    co = hd.chi_sigma(solver.domain, fam)
    d2 = hd.delta2_n_formula(solver, fam, ev, udot, co)
    d2s = hd.delta2_n_formula(solver, fam, ev[::-1], udot[::-1], co)
    return d2, {"swapped": d2s}, max(abs(d1 - d1s), abs(d2 - d2s))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def build_registry() -> list[Case]:
    dil = lambda: pert.TaylorFamily(pert.dilation())
    rot = lambda: pert.FlowFamily(pert.rotation())
    trans = lambda: pert.TaylorFamily(pert.translation(1.0, 0.0))
    one = IntegrandSpec.constant
    cases = [
        Case("jacobian-dilation-det", "jacobian",
             "volume-element derivative formulas", 1e-12, _jacobian_dilation_det,
             description="det DT_t derivatives of the dilation family against the closed form (2, 2)."),
        Case("jacobian-rotation-det-zero", "jacobian",
             "volume-element derivative formulas", 1e-10, _jacobian_rotation_det,
             description="Volume-preserving rotation flow: both det derivatives vanish; pins the trace sign."),
        Case("jacobian-poly-det-fd", "jacobian",
             "volume-element derivative formulas", 1e-7,
             _jacobian_poly_fd(pert.det_derivatives,
                               lambda j: j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]),
             description="Random polynomial flows: det derivatives vs 5-point differences of the integrated Jacobian."),
        Case("jacobian-dilation-inverse", "jacobian",
             "inverse-Jacobian derivative formulas", 1e-12, _jacobian_dilation_inverse,
             description="(DT_t)^-1 derivatives of the dilation family against (-I, 2I)."),
        Case("jacobian-poly-inverse-fd", "jacobian",
             "inverse-Jacobian derivative formulas", 1e-7,
             _jacobian_poly_fd(pert.inverse_jacobian_derivatives, np.linalg.inv),
             description="Random polynomial flows: inverse-Jacobian derivatives vs componentwise finite differences."),
        Case("jacobian-minor-expansion", "jacobian",
             "minor-determinant quadratic expansion", 1e-12, _jacobian_minor,
             description="Quadratic model of Jacobian minors on random 2..4-dimensional data against the first three coefficients of the exact minor polynomial."),
        Case("jacobian-flow-acceleration-identity", "jacobian",
             "flow acceleration identity", 1e-8, _jacobian_flow_acceleration,
             description="Kinematic second derivative of the flow map equals the advective acceleration normally."),
        Case("liouville-disk-dilation-first-volume", "liouville",
             "first volume derivative formula", 1e-8,
             _liouville_case("first_volume", "disk", dil, lambda: one(1.0), TWO_PI),
             description="Dilated disk area rate: formula value 2*pi against the closed form."),
        Case("liouville-disk-dilation-first-area", "liouville",
             "first area derivative formula", 1e-8,
             _liouville_case("first_area", "disk", dil, lambda: one(1.0), TWO_PI),
             description="Dilated circle perimeter rate: 2*pi against the closed form."),
        Case("liouville-disk-translation-moment", "liouville",
             "first volume derivative formula", 1e-10,
             _liouville_case("first_volume", "disk", trans,
                             lambda: IntegrandSpec.from_coefficients(POSITION[0]),
                             np.pi),
             description="First moment of a translating disk: derivative pi."),
        Case("liouville-rotation-first-volume-zero", "liouville",
             "first volume derivative formula", 1e-10,
             _liouville_case("first_volume", "disk", rot, lambda: one(1.0), 0.0),
             description="Rotation flow preserves area: derivative vanishes."),
        Case("liouville-disk-dilation-second-volume", "liouville",
             "second volume derivative formula", 1e-6,
             _liouville_case("second_volume", "disk", dil, lambda: one(1.0), TWO_PI),
             description="Second derivative of the dilated disk area: 2*pi."),
        Case("liouville-disk-dilation-second-area", "liouville",
             "second area derivative formula", 1e-6,
             _liouville_case("second_area", "disk", dil, lambda: one(1.0), 0.0),
             description="Dilated perimeter is linear in t: second derivative vanishes."),
        Case("liouville-flux-first-dilation", "liouville",
             "first flux derivative formula", 1e-10,
             _liouville_case("flux_first", "disk", dil,
                             lambda: VectorIntegrandSpec.from_coefficients(*POSITION),
                             4 * np.pi),
             description="Flux of the position field through the dilated circle: rate 4*pi."),
        Case("liouville-flux-second-dilation", "liouville",
             "second flux derivative formula", 1e-8,
             _liouville_case("flux_second", "disk", dil,
                             lambda: VectorIntegrandSpec.from_coefficients(*POSITION),
                             4 * np.pi),
             description="Second derivative of the same flux: 4*pi."),
        Case("liouville-area-flux-consistency", "liouville",
             "area formula as a normal-field flux", 1e-9, _liouville_consistency,
             description="First area derivative equals the flux derivative of the collar normal scaled by the integrand."),
        Case("liouville-nu-dot-translation", "liouville",
             "normal-vector rate formula", 1e-10, _liouville_nu_dot,
             description="Moving-normal rate under translation: sin(theta) tau, orthogonal to nu."),
        Case("liouville-star-translation-second-area", "liouville",
             "second area derivative formula", 1e-3, _liouville_case(
                 "second_area", "star", trans, lambda: one(1.0), 0.0),
             description="Translation preserves the star perimeter; second derivative vanishes (FD cross-check)."),
    ]
    for k in range(6):
        cases.append(Case(f"liouville-random-first-{k}", "liouville",
                          "first derivative formulas vs Richardson differences",
                          1e-4, _liouville_random(1, k),
                          description="Seeded random (domain, family, integrand): first derivative vs extrapolated differences."))
    for k in range(4):
        cases.append(Case(f"liouville-random-second-{k}", "liouville",
                          "second derivative formulas vs 5-point differences",
                          1e-2, _liouville_random(2, k),
                          description="Seeded random (domain, family, integrand): second derivative vs 5-point differences."))
    cases += [
        Case("greens-disk-analytic", "greens",
             "mixed Green's function solver", 1e-8, _greens_disk_analytic,
             description="Unit-disk Dirichlet solve against the image-charge formula at 20 probes."),
        Case("greens-disk-poisson-kernel", "greens",
             "boundary flux trace", 1e-7, _greens_poisson_kernel,
             description="Negative normal trace equals the classical Poisson kernel on the circle."),
        Case("greens-symmetry", "greens",
             "Green's function symmetry", 1e-7, _greens_symmetry,
             description="N(x,y) = N(y,x) at random interior pairs on disk and mixed annulus."),
        Case("greens-annulus-flux", "greens",
             "unit point-source flux balance", 1e-6, _greens_annulus_flux,
             description="Mixed annulus: total Dirichlet-side flux of the Green's function is -1."),
        Case("greens-representation", "greens",
             "solution representation identity", 1e-5, _greens_representation,
             description="Manufactured Poisson solutions reconstructed from volume and boundary pairings."),
        Case("greens-harmonicity", "greens",
             "corrector harmonicity", 1e-8, _greens_harmonicity,
             description="Mean-value property of the corrector over random interior circles."),
        Case("greens-charge-convergence", "greens",
             "collocation convergence", 0.1, _greens_charge_convergence,
             description="Doubling charge count shrinks check-node residual 10x (or below the conditioning floor)."),
        Case("greens-perturbed-scaling", "greens",
             "deformed-domain solver", 1e-7, _greens_perturbed_scaling,
             description="Dilated-disk re-solve matches the log-kernel scaling identity."),
        Case("hadamard-chi-sigma-three-form", "hadamard",
             "second-variation boundary coefficients", 1e-10, _chi_sigma_three_form,
             description="chi/sigma assembled three ways (acceleration, transport, curvature forms) agree nodewise."),
        Case("hadamard-chi-sigma-dilation-anchor", "hadamard",
             "second-variation boundary coefficients", 1e-10, _chi_sigma_dilation,
             description="Dilation of the unit disk: chi = -1 and sigma = 0 in every form."),
        Case("hadamard-chi-sigma-normal", "hadamard",
             "second-variation boundary coefficients", 1e-10, _chi_sigma_normal,
             description="Constant-speed normal perturbation: chi = -(rho)^2 curvature, sigma = 0."),
        Case("hadamard-delta-n-disk-dilation", "hadamard",
             "first variational formula of the Green's function", 1e-4,
             _delta_n_dilation,
             description="First variation under dilation against the analytic scaling derivative."),
        Case("hadamard-delta-n-rotation-zero", "hadamard",
             "first variational formula of the Green's function", 1e-8,
             _delta_n_rotation,
             description="Rotation flow on the disk: first variation vanishes."),
        Case("hadamard-delta-n-triangle-disk", "hadamard",
             "first-variation route agreement", 1e-3, _route_triangle(1, "disk"),
             description="Pairing formula vs variation BVP vs exact discrete derivative (tangent) on the disk, plus the scaling oracle."),
        Case("hadamard-delta-n-triangle-annulus", "hadamard",
             "first-variation route agreement", 1e-3, _route_triangle(1, "annulus"),
             description="Same three routes on the mixed annulus under translation, plus the translation transport N_t(x, y) = N(x - ta, y - ta)."),
        Case("hadamard-delta2-n-triangle-disk", "hadamard",
             "second-variation route agreement", 1e-2, _route_triangle(2, "disk"),
             description="Second variation: formula vs second-order BVP vs tangent, plus the scaling oracle."),
        Case("hadamard-delta2-n-triangle-annulus", "hadamard",
             "second-variation route agreement", 1e-2, _route_triangle(2, "annulus"),
             description="Same three routes on the mixed annulus under translation, plus the transport's second t-derivative."),
        Case("hadamard-delta2-rotation-zero", "hadamard",
             "second-variation route agreement", 1e-6, _delta2_rotation,
             description="Rotation flow on the disk: second variation vanishes in all routes."),
        Case("hadamard-gradient-pairing-disk", "hadamard",
             "first-variation gradient pairing identity", 1e-4,
             _gradient_pairing("disk"),
             description="Interior gradient pairing of two first variations equals its boundary reduction."),
        Case("hadamard-gradient-pairing-annulus", "hadamard",
             "first-variation gradient pairing identity", 1e-3,
             _gradient_pairing("annulus"),
             description="Same identity on the mixed annulus."),
        Case("hadamard-pole-symmetry", "hadamard",
             "variation symmetry in the poles", 1e-10, _pole_symmetry,
             description="First and second variations are symmetric under exchanging the two poles."),
    ]
    return cases


def suites() -> list[str]:
    return ["jacobian", "liouville", "greens", "hadamard"]
