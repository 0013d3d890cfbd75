"""First and second domain variations of the mixed Green's function.

Three independent routes are implemented for each variation: the boundary
variational formula (trace pairings), an auxiliary harmonic BVP solved with
the same collocation machinery, and finite differences of full re-solves on
the deformed domain.  The second variation's boundary coefficients chi and
sigma are assembled in three algebraic forms whose nodewise agreement is
itself a shipped check.

Conventions for the coefficient forms (2-D, collar-extended normal with
d(nu)/dn = 0, so (grad nu) restricted to the boundary is kappa tau tau):
the raw form consumes the family's acceleration field directly, the
transport form trades it for normal/tangential derivatives of the normal
speed, and the curvature form expresses everything through the second
fundamental form.  The transport form as commonly displayed omits one
tangential-transport term; the corrected rendering is used and the literal
one is kept as a reported diagnostic (``chi_display_residual``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._fd import FDResult, derivative_ladder
from .geometry import (Domain, MixedBoundary, fourier_derivative,
                       second_fundamental_form, tangential_grad)
from .greens import (GreensConfig, GreensEval, GreensSolver, HarmonicField,
                     SolveDiagnostics, base_solver, rowwise_dot)
from .perturbation import PerturbationFamily, advective_normal_component, boundary_data


# ---------------------------------------------------------------------------
# chi / sigma coefficients
# ---------------------------------------------------------------------------

@dataclass
class HadamardCoefficients:
    """Nodal second-variation boundary coefficients in three assemblies."""

    chi: list              # acceleration-field (raw) route
    chi_transport: list    # normal-speed derivative route (corrected display)
    chi_curvature: list    # second-fundamental-form route
    sigma: list
    sigma_transport: list
    sigma_curvature: list
    chi_display_residual: list  # literal transport display minus raw form
    max_discrepancy: float


def chi_sigma(domain: Domain, family: PerturbationFamily) -> HadamardCoefficients:
    """Assemble chi and sigma nodally on every component, three ways each.

    The three assemblies use genuinely different inputs: the raw form needs
    the family's acceleration and velocity-Jacobian fields, the transport
    form needs the full derivative of the normal speed along S, and the
    curvature form needs only tangential data plus the second fundamental
    form.  Analytic data must make them agree to near rounding; the
    discrepancy is reported, not reconciled.
    """
    forms = []  # per component, in HadamardCoefficients' field order
    worst = 0.0
    for grid in domain.grids:
        data = boundary_data(family, grid)
        kappa = grid.curvature
        rho = data.normal_velocity
        rho2 = data.normal_acceleration
        s_tan = np.einsum("ni,ni->n", data.velocity, grid.tangent)
        ds_mat = data.velocity_jacobian
        dn_rho = np.einsum("ni,nij,nj->n", grid.normal, ds_mat, grid.normal)
        ds_rho = tangential_grad(grid, rho)
        # full derivative of the normal speed along S (analytic route)
        full_grad = np.einsum("ni,nij,nj->n", grid.normal, ds_mat,
                              data.velocity) + kappa * s_tan ** 2
        adv_nu = advective_normal_component(data, grid)
        grad_nu_ss = kappa * s_tan ** 2

        raw_core = rho2 - adv_nu
        chi_raw = raw_core - rho ** 2 * kappa - full_grad + 2.0 * rho * dn_rho
        sigma_raw = rho * dn_rho - s_tan * ds_rho + raw_core

        chi_lit = rho2 + rho * dn_rho + grad_nu_ss - rho ** 2 * kappa - full_grad
        chi_tr = chi_lit - s_tan * ds_rho
        sigma_tr = rho2 - 2.0 * s_tan * ds_rho + grad_nu_ss

        b_form = np.array([second_fundamental_form(grid, st, st, j)
                           for j, st in enumerate(data.tangential_velocity)])
        sigma_cv = rho2 - 2.0 * s_tan * ds_rho + b_form
        chi_cv = sigma_cv - rho ** 2 * kappa

        forms.append((chi_raw, chi_tr, chi_cv, sigma_raw, sigma_tr, sigma_cv,
                      chi_lit - chi_raw))
        for a, b in ((chi_raw, chi_tr), (chi_raw, chi_cv), (chi_tr, chi_cv),
                     (sigma_raw, sigma_tr), (sigma_raw, sigma_cv),
                     (sigma_tr, sigma_cv)):
            worst = max(worst, float(np.max(np.abs(a - b))))
    return HadamardCoefficients(*(list(per_form) for per_form in zip(*forms)), worst)


# ---------------------------------------------------------------------------
# First variation
# ---------------------------------------------------------------------------

def probe_warning(solver: GreensSolver, point: np.ndarray) -> str | None:
    """Accuracy warning for probes closer to the boundary than three node gaps."""
    point = np.asarray(point, dtype=float)
    for comp in solver.components:
        gaps = np.linalg.norm(comp.nodes - point[None, :], axis=1)
        spacing = float(np.mean(comp.weights))
        if gaps.min() < 3.0 * spacing:
            return (f"probe {point} is within 3.0 node spacings of "
                    "the boundary; trace quadrature degrades")
    return None


def delta_n_formula(solver: GreensSolver, family: PerturbationFamily,
                    ev: GreensEval) -> float:
    """First variation by boundary pairing of traces against the normal speed.

    ``ev`` is the block of the poles (x, y):
    <rho dN/dnu(.,x), dN/dnu(.,y)> on Dirichlet pieces minus
    <rho dN/ds(.,x), dN/ds(.,y)> on Neumann pieces; symmetric in x, y.
    """
    total = 0.0
    for i, (grid, comp) in enumerate(zip(solver.domain.grids, solver.components)):
        rho = boundary_data(family, grid).normal_velocity
        if comp.dirichlet:
            qx, qy = ev.normal_trace(i)
            total += float(np.dot(comp.weights, rho * qx * qy))
        else:
            qx, qy = ev.tangential_trace(i)
            total -= float(np.dot(comp.weights, rho * qx * qy))
    return total


def delta_n_bvp(solver: GreensSolver, family: PerturbationFamily,
                ev_y: GreensEval):
    """First variation as the harmonic field solving the variation BVP.

    Dirichlet data -rho dN/dnu(.,y); Neumann data d/ds(rho dN/ds(.,y)),
    assembled nodally and interpolated to the collocation nodes.  For a
    block of poles the fields come from one solve, as a block.
    """
    nodal = []
    for i, (grid, comp) in enumerate(zip(solver.domain.grids, solver.components)):
        rho = boundary_data(family, grid).normal_velocity
        if comp.dirichlet:
            nodal.append(-rho * ev_y.normal_trace(i))
        else:
            product = rho * ev_y.tangential_trace(i)
            nodal.append(fourier_derivative(product) / grid.speed)
    return solver.harmonic_bvp(nodal)


def _probe_messages(solver: GreensSolver, points) -> list[str]:
    return [m for m in (probe_warning(solver, p) for p in points) if m is not None]


@dataclass
class ResolvedLadder(FDResult):
    """An FD ladder of full re-solves, with the rank of each re-solve, one per
    abscissa in ascending t."""

    re_solve_ranks: tuple = ()


def _resolved_ladder(order: int, solver: GreensSolver, family: PerturbationFamily,
                     x, y, ladder) -> ResolvedLadder:
    """FD ladder of t -> N_t(x, y), each value a full re-solve on T_t(Omega)
    by ``solver.moved``.

    The result's ``warnings`` gain the probe warnings of every re-solve,
    judged against that re-solve's own boundary, each distinct one once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    messages, ranks = [], {}

    def value(t):
        moved = solver.moved(family, t)
        messages.extend(_probe_messages(moved, (x, y)))
        ev = moved.solve(y)
        ranks[t] = ev.diagnostics.rank
        return ev.value(x[None, :])[0]

    fd = derivative_ladder(value, order=order, ladder=ladder)
    fd.warnings = tuple(dict.fromkeys(fd.warnings + tuple(messages)))
    return ResolvedLadder(**vars(fd), re_solve_ranks=tuple(ranks[t] for t in sorted(ranks)))


def delta_n_fd(solver: GreensSolver, family: PerturbationFamily,
               x: np.ndarray, y: np.ndarray, ladder=None) -> ResolvedLadder:
    """First variation by re-solving on the deformed domain of the base
    ``solver`` along a t-ladder."""
    return _resolved_ladder(1, solver, family, x, y, ladder)


# ---------------------------------------------------------------------------
# Second variation
# ---------------------------------------------------------------------------

def second_bvp_data(solver: GreensSolver, family: PerturbationFamily,
                    ev_y: GreensEval, udot_y: HarmonicField,
                    coeffs: HadamardCoefficients):
    """Nodal boundary data (g on Dirichlet, h on Neumann) for the second BVP.

    g = -chi dN/dnu(.,y) - 2 rho d(udot)/dnu;
    h = d/ds(chi dN/ds(.,y) + 2 rho d(udot)/ds).
    Both follow from twice differentiating the boundary conditions along the
    deformation (chain rule on the moving boundary); each piece is pinned by
    kernel-level oracles in the tests.
    """
    nodal = []
    for i, (grid, comp) in enumerate(zip(solver.domain.grids, solver.components)):
        rho = boundary_data(family, grid).normal_velocity
        grad_udot = udot_y.gradient(grid.nodes)
        if comp.dirichlet:
            dn_udot = rowwise_dot(grad_udot, grid.normal)
            nodal.append(-coeffs.chi[i] * ev_y.normal_trace(i)
                         - 2.0 * rho * dn_udot)
        else:
            ds_udot = rowwise_dot(grad_udot, grid.tangent)
            product = (coeffs.chi[i] * ev_y.tangential_trace(i)
                       + 2.0 * rho * ds_udot)
            nodal.append(fourier_derivative(product) / grid.speed)
    return nodal


def delta2_n_bvp(solver: GreensSolver, family: PerturbationFamily,
                 ev_y: GreensEval, udot_y: HarmonicField,
                 coeffs: HadamardCoefficients):
    """Second variation as the harmonic field with the second-order data."""
    nodal = second_bvp_data(solver, family, ev_y, udot_y, coeffs)
    return solver.harmonic_bvp(nodal)


def delta2_n_formula(solver: GreensSolver, family: PerturbationFamily,
                     ev: GreensEval, udot: HarmonicField,
                     coeffs: HadamardCoefficients) -> float:
    """Second variation by the variational formula.

    ``ev`` is the block of the poles (x, y) and ``udot`` the block of their
    first variations deltaN(., x), deltaN(., y):
    -2 (grad deltaN(.,x), grad deltaN(.,y))_Omega
    + <chi dN/dnu(.,x), dN/dnu(.,y)> on Dirichlet pieces
    - <chi dN/ds(.,x), dN/ds(.,y)> on Neumann pieces
    - 2 <rho, d deltaN(.,x)/ds dN/ds(.,y) + d deltaN(.,y)/ds dN/ds(.,x)>
      on Neumann pieces.
    Symmetric in the poles term by term; with no Neumann piece it collapses
    to the two-term Dirichlet form.  The interior gradients come from the
    first-variation charge fields, both from one kernel matrix.
    """
    interior = solver.domain.interior()
    gx, gy = udot.gradient(interior.nodes)
    total = -2.0 * float(np.dot(interior.weights, np.einsum("ni,ni->n", gx, gy)))
    for i, (grid, comp) in enumerate(zip(solver.domain.grids, solver.components)):
        if comp.dirichlet:
            qx, qy = ev.normal_trace(i)
            total += float(np.dot(comp.weights, coeffs.chi[i] * qx * qy))
        else:
            qx, qy = ev.tangential_trace(i)
            wx, wy = rowwise_dot(udot.gradient(grid.nodes), grid.tangent)
            rho = boundary_data(family, grid).normal_velocity
            total -= float(np.dot(comp.weights, coeffs.chi[i] * qx * qy))
            total -= 2.0 * float(np.dot(comp.weights, rho * (wx * qy + wy * qx)))
    return total


def delta2_n_fd(solver: GreensSolver, family: PerturbationFamily,
                x: np.ndarray, y: np.ndarray, ladder=None) -> ResolvedLadder:
    """Second variation by 5-point differencing of full re-solves, as in
    ``delta_n_fd``."""
    return _resolved_ladder(2, solver, family, x, y, ladder)


# ---------------------------------------------------------------------------
# Gradient-pairing identity
# ---------------------------------------------------------------------------

def gradient_pairing_residual(solver: GreensSolver, family: PerturbationFamily,
                              ev: GreensEval, udot: HarmonicField):
    """Interior gradient pairing of the two first variations vs its boundary form.

    ``ev`` and ``udot`` are the blocks of the poles (x, y) and of their first
    variations:
    (grad deltaN(.,x), grad deltaN(.,y))_Omega
    = -<rho dN/dnu(.,y), d deltaN/dnu(.,x)> on Dirichlet pieces
      -<dN/ds(.,x), rho d deltaN/ds(.,y)> on Neumann pieces
    (the Neumann pairing already integrated by parts).
    """
    interior = solver.domain.interior()
    gx, gy = udot.gradient(interior.nodes)
    lhs = float(np.dot(interior.weights, np.einsum("ni,ni->n", gx, gy)))
    rhs = 0.0
    for i, (grid, comp) in enumerate(zip(solver.domain.grids, solver.components)):
        rho = boundary_data(family, grid).normal_velocity
        if comp.dirichlet:
            dn_udot_x = rowwise_dot(udot[0].gradient(grid.nodes), grid.normal)
            rhs -= float(np.dot(comp.weights, rho * ev.normal_trace(i)[1] * dn_udot_x))
        else:
            ds_udot_y = rowwise_dot(udot[1].gradient(grid.nodes), grid.tangent)
            rhs -= float(np.dot(comp.weights,
                                ev.tangential_trace(i)[0] * rho * ds_udot_y))
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Scaling oracle on the dilated disk
# ---------------------------------------------------------------------------

def disk_dilation_delta_n(x, y, order: int = 1) -> float:
    """d^order/dt^order of the disk Green's function under dilation, exactly.

    Under T_t = (1+t) id the Dirichlet Green's function of the unit disk
    satisfies N_t(x, y) = N(x/(1+t), y/(1+t)); the derivative of that scaling
    identity is differenced on the analytic formula with tight steps.
    """
    from .greens import disk_greens
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def g(t):
        return disk_greens(x / (1.0 + t), y / (1.0 + t))

    # g is a closed form, free of solver noise, so finer steps than the
    # default ladders pay off: the default second ladder moves this value
    # by 6.1e-11
    ladder = (1e-3, 5e-4) if order == 1 else (2e-2, 1e-2, 5e-3)
    return derivative_ladder(g, order=order, ladder=ladder).value


@dataclass
class RouteTriangle:
    """Pairwise comparison of the formula, BVP, and FD routes for one probe pair.

    ``residual``, ``rank`` and ``n_unknowns`` summarize the base and BVP
    solves: the worst check-node residual, the smallest rank, and the
    number of charges.  ``probe_warnings`` are the probe warnings on the
    base boundary; those of the re-solves are in the FD route's ladder
    ``fd_ladder``, whose value is ``fd`` and which holds the rank of each
    re-solve.
    """

    formula: float
    bvp: float
    fd: float
    pairwise: dict
    residual: float
    rank: int
    n_unknowns: int
    fd_ladder: ResolvedLadder
    probe_warnings: list[str]

    @property
    def max_pairwise(self) -> float:
        return max(self.pairwise.values())

    def solve_details(self) -> dict:
        """The solve summary as report ``details``."""
        return {"solve_residual": self.residual, "solve_rank": self.rank,
                "n_unknowns": self.n_unknowns}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _triangle(formula: float, bvp: float, fd: ResolvedLadder,
              diagnostics: list[SolveDiagnostics], issued: list[str]) -> RouteTriangle:
    """The route comparison; re-solve probe warnings not ``issued`` yet go to the caller.

    The FD ladder's own warnings stay in the FD result.
    """
    for message in fd.warnings:
        if message.startswith("probe ") and message not in issued:
            warnings.warn(message, stacklevel=3)
    pairwise = {"formula_vs_bvp": _rel(formula, bvp),
                "formula_vs_fd": _rel(formula, fd.value),
                "bvp_vs_fd": _rel(bvp, fd.value)}
    return RouteTriangle(formula, bvp, fd.value, pairwise,
                         max(d.residual for d in diagnostics),
                         min(d.rank for d in diagnostics),
                         diagnostics[0].n_unknowns, fd, issued)


def _route_poles(domain: Domain, mixed: MixedBoundary, x, y, config: GreensConfig | None):
    """Probes, the domain's base solver, pole block (x, y) and probe warnings of a route run.

    The probe warnings on the base boundary are issued for the caller of the
    route before any solve, and returned.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    solver = base_solver(domain, mixed, config)
    messages = _probe_messages(solver, (x, y))
    for message in messages:
        warnings.warn(message, stacklevel=3)
    return x, y, solver, solver.solve(np.stack([x, y])), messages


def delta_n_routes(domain: Domain, mixed: MixedBoundary, family: PerturbationFamily,
                   x, y, config: GreensConfig | None = None,
                   ladder=None) -> RouteTriangle:
    """Run all three first-variation routes for one probe pair."""
    x, y, solver, ev, messages = _route_poles(domain, mixed, x, y, config)
    formula = delta_n_formula(solver, family, ev)
    udot_y, bvp_diag = delta_n_bvp(solver, family, ev[1])
    bvp = float(udot_y.value(x[None, :])[0])
    fd = delta_n_fd(solver, family, x, y, ladder=ladder)
    return _triangle(formula, bvp, fd, [*ev.diagnostics, bvp_diag], messages)


def delta2_n_routes(domain: Domain, mixed: MixedBoundary, family: PerturbationFamily,
                    x, y, config: GreensConfig | None = None,
                    ladder=None) -> RouteTriangle:
    """Run all three second-variation routes for one probe pair.

    Three solves: the poles (x, y), their first variations, then the second
    variation for y.
    """
    x, y, solver, ev, messages = _route_poles(domain, mixed, x, y, config)
    coeffs = chi_sigma(domain, family)
    udot, udot_diags = delta_n_bvp(solver, family, ev)
    formula = delta2_n_formula(solver, family, ev, udot, coeffs)
    uddot, uddot_diag = delta2_n_bvp(solver, family, ev[1], udot[1], coeffs)
    bvp = float(uddot.value(x[None, :])[0])
    fd = delta2_n_fd(solver, family, x, y, ladder=ladder)
    return _triangle(formula, bvp, fd, [*ev.diagnostics, *udot_diags, uddot_diag],
                     messages)
