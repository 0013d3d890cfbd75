"""First and second domain variations of the mixed Green's function.

Three independent routes are implemented for each variation: the boundary
variational formula (trace pairings, the second variation's volume term
included, by Green's first identity), an auxiliary harmonic BVP solved with
the same collocation machinery, and the tangent: the exact t-derivative at
t = 0 of the discrete problem on the deformed domain T_t(Omega), the
least-squares fit on the base's kept charges that ``GreensSolver.moved``
re-solves.  The tangent differentiates that fit by the Golub-Pereyra rule
for the derivative of a least-squares solution, from the base solver's QR
factors (its matrix is the fit's t = 0 matrix) and the exact rates of its
entries, so it assembles and re-solves nothing.  It sweeps those rates
once for either order: the second variation needs c'' only through the
probe's kernel row, so it pairs the rates with that row's adjoint pair,
one more fit, instead of fitting c''.  One rule per piece,
``_Piece``, sets how the formula and the BVP read a Dirichlet or a Neumann
piece, and one rule, ``RouteTriangle.err``, gives a route row's err.
Finite differences of full re-solves along a t-ladder (``delta_n_fd``,
``delta2_n_fd``) differentiate the same problem; the tests keep them as the
tangent's reference.  Under a translation the identity
N_t(x, y) = N(x - ta, y - ta) gives the t-derivatives from the base solve
(``translation_transport``), the registry's mixed-annulus oracle, and on the
dilated disk the scaling identity gives them in closed form
(``disk_dilation_delta_n``).  The second variation's boundary coefficients
chi and sigma are assembled in three algebraic forms whose nodewise
agreement is itself a shipped check.

Conventions for the coefficient forms (2-D, collar-extended normal with
d(nu)/dn = 0, so (grad nu) restricted to the boundary is kappa tau tau):
the raw form consumes the family's acceleration field directly, the
transport form trades it for normal/tangential derivatives of the normal
speed, and the curvature form expresses everything through the second
fundamental form.  The transport form as commonly displayed omits one
tangential-transport term; the corrected rendering is used and the literal
one is kept as a diagnostic (``chi_display_residual``), whose largest value
the ``hadamard-chi-sigma-three-form`` row reports.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from ._fd import FDResult, derivative_ladder
from .geometry import Domain, MixedBoundary, PointSet, second_fundamental_form, tangential_grad
from .greens import (GreensConfig, GreensEval, GreensSolver, HarmonicField, SolveDiagnostics,
                     base_solver, fundamental_gradient, fundamental_hessian, rowwise_dot)
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

        b_form = second_fundamental_form(grid, data.tangential_velocity,
                                         data.tangential_velocity)
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

@dataclass(frozen=True)
class _Piece:
    """Boundary piece ``i`` on its grid with the family's normal speed ``rho``,
    under its condition's rule: a Dirichlet piece's trace is d/dnu, its
    pairings take the sign +1 and the BVP datum of a product P paired with its
    trace is -P; a Neumann piece's trace is d/ds, its sign -1 and its datum dP/ds."""

    i: int
    grid: PointSet
    dirichlet: bool
    rho: np.ndarray

    def trace(self, ev: GreensEval) -> np.ndarray:  # of a pole block
        return ev.normal_trace(self.i) if self.dirichlet else ev.tangential_trace(self.i)

    def gradient_trace(self, gradient: np.ndarray) -> np.ndarray:  # of a field
        return rowwise_dot(gradient, self.grid.normal if self.dirichlet else self.grid.tangent)

    def pair(self, values: np.ndarray) -> float:  # sign * <values>
        total = self.grid.integrate(values)
        return total if self.dirichlet else -total

    def datum(self, product: np.ndarray) -> np.ndarray:
        return -product if self.dirichlet else tangential_grad(self.grid, product)


def _pieces(solver: GreensSolver, family: PerturbationFamily):
    """The solver's boundary pieces under ``family``, in component order."""
    for i, comp in enumerate(solver.components):
        yield _Piece(i, comp.grid, comp.dirichlet, boundary_data(family, comp.grid).normal_velocity)


def probe_warning(solver: GreensSolver, point: np.ndarray) -> str | None:
    """Accuracy warning for probes closer to the boundary than three node gaps."""
    point = np.asarray(point, dtype=float)
    for comp in solver.components:
        gaps = np.linalg.norm(comp.grid.nodes - point[None, :], axis=1)
        spacing = float(np.mean(comp.grid.weights))
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
    for piece in _pieces(solver, family):
        qx, qy = piece.trace(ev)
        total += piece.pair(piece.rho * qx * qy)
    return total


def delta_n_bvp(solver: GreensSolver, family: PerturbationFamily,
                ev_y: GreensEval):
    """First variation as the harmonic field solving the variation BVP.

    Dirichlet data -rho dN/dnu(.,y); Neumann data d/ds(rho dN/ds(.,y)),
    assembled nodally and interpolated to the collocation nodes.  For a
    block of poles the fields come from one solve, as a block.
    """
    return solver.harmonic_bvp([piece.datum(piece.rho * piece.trace(ev_y))
                                for piece in _pieces(solver, family)])


def _probe_messages(solver: GreensSolver, points) -> list[str]:
    return [m for m in (probe_warning(solver, p) for p in points) if m is not None]


def _resolved_ladder(order: int, solver: GreensSolver, family: PerturbationFamily,
                     x, y) -> FDResult:
    """FD ladder of t -> N_t(x, y) at the default steps, each value a full
    re-solve on T_t(Omega) by ``solver.moved``.

    The result's ``warnings`` gain the probe warnings of every re-solve,
    judged against that re-solve's own boundary, each distinct one once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    messages = []

    def value(t):
        moved = solver.moved(family, t)
        messages.extend(_probe_messages(moved, (x, y)))
        return moved.solve(y).value(x[None, :])[0]

    fd = derivative_ladder(value, order=order)
    fd.warnings = tuple(dict.fromkeys(fd.warnings + tuple(messages)))
    return fd


def delta_n_fd(solver: GreensSolver, family: PerturbationFamily,
               x: np.ndarray, y: np.ndarray) -> FDResult:
    """First variation by re-solving on the deformed domain of the base
    ``solver`` along a t-ladder."""
    return _resolved_ladder(1, solver, family, x, y)


def _tangent(order: int, solver: GreensSolver, family: PerturbationFamily,
             x, y) -> list[float]:
    """The t-derivatives of orders 1 to ``order`` at t = 0 of t -> N_t(x, y),
    the value ``_resolved_ladder`` differences, for the base ``solver``.

    At t = 0 the re-solve's fit A c = b is the base's own: one fit on the
    base's QR factors gives c (the base solve's, bit for bit) and
    r = b - A c.  With (A^T A)^-1 = R^-1 R^-T (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973):
    c' = A^+(b' - A'c) + (A^T A)^-1 A'^T r, r' = b' - A'c - A c', and
    c'' = A^+(b'' - A''c - 2A'c') + (A^T A)^-1 (A''^T r + 2 A'^T r').
    The value Gamma(x - y) + sum_j c_j Gamma(x - z_j(t)) at the fixed x then
    takes the rates of c and of its charges' kernel row k_0, k_1, k_2, by
    Leibniz's rule.  A' and A'' enter only through products, from one sweep
    of their row blocks: with P_k = [A_k | -b_k], it gives P_k (c, 1) = A_k c - b_k
    and P_k^T r.  The second variation needs c'' only as k_0 . c'', which
    the value row's adjoint pair beta = (A^T A)^-1 k_0, alpha = A beta =
    (A^+)^T k_0 (one fit) gives as
    -alpha . (A''c - b'') + beta . A''^T r - 2 (A'^T alpha) . c' + 2 (A' beta) . r',
    with (beta, 0) and alpha as second columns of the same sweep.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fit = solver.solver.fit
    c, r = fit(np.concatenate(solver.corrector_data(y)[0]), np.zeros(len(solver.solver.charges)))
    kernel = solver.kernel_row_rates(family, x, order)
    products = functools.partial(solver.collocation_rate_products, family, y, order)
    if order == 1:
        (d1, g1), = products(np.append(c, 1.0), r)
        c1, _ = fit(-d1, g1[:-1])
        return [float(kernel[0] @ c1 + kernel[1] @ c)]
    beta, minus_alpha = fit(np.zeros(len(r)), kernel[0])  # the fit's residual is -A beta
    (d1, g1), (d2, g2) = products(np.column_stack([np.append(c, 1.0), np.append(beta, 0.0)]),
                                  np.column_stack([r, minus_alpha]))
    c1, r1 = fit(-d1[:, 0], g1[:-1, 0])
    value_c2 = beta @ g2[:-1, 0] + minus_alpha @ d2[:, 0] + 2.0 * (d1[:, 1] @ r1 + g1[:-1, 1] @ c1)
    return [float(kernel[0] @ c1 + kernel[1] @ c),
            float(value_c2 + 2.0 * (kernel[1] @ c1) + kernel[2] @ c)]


def delta_n_tangent(solver: GreensSolver, family: PerturbationFamily,
                    x: np.ndarray, y: np.ndarray) -> float:
    """First variation as the exact t-derivative at t = 0 of the problem that
    ``delta_n_fd`` re-solves, from the base ``solver`` (see ``_tangent``)."""
    return _tangent(1, solver, family, x, y)[0]


# ---------------------------------------------------------------------------
# Second variation
# ---------------------------------------------------------------------------

def second_bvp_data(solver: GreensSolver, family: PerturbationFamily,
                    ev_y: GreensEval, udot_y: HarmonicField | list,
                    coeffs: HadamardCoefficients):
    """Nodal boundary data (g on Dirichlet, h on Neumann) for the second BVP.

    g = -chi dN/dnu(.,y) - 2 rho d(udot)/dnu;
    h = d/ds(chi dN/ds(.,y) + 2 rho d(udot)/ds).
    Both follow from twice differentiating the boundary conditions along the
    deformation (chain rule on the moving boundary); each piece is pinned by
    kernel-level oracles in the tests.  ``udot_y`` is the first variation
    for y, or its gradient at each piece's grid nodes (``_grid_gradients``).
    """
    gradients = udot_y if isinstance(udot_y, list) else _grid_gradients(solver, udot_y)
    return [piece.datum(coeffs.chi[piece.i] * piece.trace(ev_y)
                        + 2.0 * piece.rho * piece.gradient_trace(gradients[piece.i]))
            for piece in _pieces(solver, family)]


def _grid_gradients(solver: GreensSolver, udot: HarmonicField) -> list[np.ndarray]:
    """The gradient of a field, or of a block, at each component's grid nodes."""
    return [udot.gradient(comp.grid.nodes) for comp in solver.components]


def delta2_n_bvp(solver: GreensSolver, family: PerturbationFamily,
                 ev_y: GreensEval, udot_y: HarmonicField | list,
                 coeffs: HadamardCoefficients):
    """Second variation as the harmonic field with the second-order data."""
    nodal = second_bvp_data(solver, family, ev_y, udot_y, coeffs)
    return solver.harmonic_bvp(nodal)


def delta2_n_formula(solver: GreensSolver, family: PerturbationFamily,
                     ev: GreensEval, udot: HarmonicField,
                     coeffs: HadamardCoefficients, gradients=None) -> float:
    """Second variation by the variational formula.

    ``ev`` is the block of the poles (x, y) and ``udot`` the block of their
    first variations deltaN(., x), deltaN(., y):
    -2 (grad deltaN(.,x), grad deltaN(.,y))_Omega
    + <chi dN/dnu(.,x), dN/dnu(.,y)> on Dirichlet pieces
    - <chi dN/ds(.,x), dN/ds(.,y)> on Neumann pieces
    - 2 <rho, d deltaN(.,x)/ds dN/ds(.,y) + d deltaN(.,y)/ds dN/ds(.,x)>
      on Neumann pieces.
    Symmetric in the poles term by term; with no Neumann piece it collapses
    to the two-term Dirichlet form.  The first variations are charge fields
    with every charge outside the closed domain, so they are harmonic in
    Omega, and Green's first identity turns the volume term into
    -<deltaN(.,x), d deltaN(.,y)/dnu> - <deltaN(.,y), d deltaN(.,x)/dnu>
    over every piece.  Each component takes one value and one gradient
    block of the first variations at its grid nodes; ``gradients`` are those
    blocks (``_grid_gradients``), evaluated here when not given.  That trapezoid rule's
    error on a product of two charge fields falls like R^-m for the ring
    factor R of ``Domain.charge_rings``, so it stays at rounding while the
    grid has m >= n_charges nodes, and a coarser grid is warned of.
    """
    m, n_charges = solver.domain.grids[0].size, solver.config.n_charges
    if m < n_charges:
        warnings.warn(f"m={m} is below n_charges={n_charges}: the second variation's "
                      "boundary-paired volume term may lose accuracy", stacklevel=2)
    if gradients is None:
        gradients = _grid_gradients(solver, udot)
    total = 0.0
    for piece in _pieces(solver, family):
        vx, vy = udot.value(piece.grid.nodes)
        grad_udot = gradients[piece.i]
        dx, dy = rowwise_dot(grad_udot, piece.grid.normal)
        total -= piece.grid.integrate(vx * dy + vy * dx)
        qx, qy = piece.trace(ev)
        total += piece.pair(coeffs.chi[piece.i] * qx * qy)
        if not piece.dirichlet:
            wx, wy = piece.gradient_trace(grad_udot)
            total += 2.0 * piece.pair(piece.rho * (wx * qy + wy * qx))
    return total


def delta2_n_fd(solver: GreensSolver, family: PerturbationFamily,
                x: np.ndarray, y: np.ndarray) -> FDResult:
    """Second variation by 5-point differencing of full re-solves, as in
    ``delta_n_fd``."""
    return _resolved_ladder(2, solver, family, x, y)


def delta2_n_tangent(solver: GreensSolver, family: PerturbationFamily,
                     x: np.ndarray, y: np.ndarray) -> float:
    """Second variation as the exact second t-derivative at t = 0 of the
    problem that ``delta2_n_fd`` re-solves (see ``_tangent``)."""
    return _tangent(2, solver, family, x, y)[1]


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
    (the Neumann pairing already integrated by parts).  The left side is the
    interior rule's value of the Dirichlet integral that ``delta2_n_formula``
    pairs on the boundary.
    """
    interior = solver.domain.interior()
    gx, gy = udot.gradient(interior.nodes)
    lhs = float(np.dot(interior.weights, np.einsum("ni,ni->n", gx, gy)))
    rhs = 0.0
    for piece in _pieces(solver, family):
        # the pole whose trace pairs with the other pole's variation
        pole = 1 if piece.dirichlet else 0
        trace_udot = piece.gradient_trace(udot[1 - pole].gradient(piece.grid.nodes))
        rhs -= piece.grid.integrate(piece.rho * piece.trace(ev)[pole] * trace_udot)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Transport oracle for a translation
# ---------------------------------------------------------------------------

def _dipole_corrector(solver: GreensSolver, y: np.ndarray, a: np.ndarray) -> HarmonicField:
    """a . grad_y of the corrector of the pole y: the corrector of the dipole
    a . grad_y Gamma(. - y), whose data is the datum of a . grad Gamma(. - y),
    fitted on the base factors."""
    value = lambda points: fundamental_gradient(points, y)[:, 0] @ a
    gradient = lambda points: fundamental_hessian(points, y)[:, 0] @ a
    field, _ = solver.solver.solve(
        [comp.datum(value, gradient, comp.colloc) for comp in solver.components],
        check_data=[comp.datum(value, gradient, comp.check) for comp in solver.components])
    return field


def translation_transport(solver: GreensSolver, family: PerturbationFamily,
                          x, y) -> list[float]:
    """The first and second t-derivatives at t = 0 of N_t(x, y) under a
    translation T_t = id + ta, from the base ``solver`` alone.

    A translation moves the nodes, the normals and the charges together, so
    N_t(x, y) = N(x - ta, y - ta) (Garabedian & Schiffer, J. Analyse Math. 2,
    1952), for the discrete fit too: its matrix stays the base's.  The
    derivatives are -a.(grad_x N + grad_y N) and (a.grad_x + a.grad_y)^2 N.
    The y-derivatives come from the pole block's other pole, by
    N(x, y) = N(y, x), which the fit keeps to its own accuracy; the mixed
    term a.grad_x a.grad_y N = -a.H Gamma(x - y) a + a.grad w(x) takes the
    dipole corrector w (``_dipole_corrector``), one more right-hand side.
    A family whose S varies or whose R is not 0 is no translation: ValueError.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    points = np.vstack([x, y, *(comp.grid.nodes for comp in solver.components)])
    velocity = family.velocity(points)
    a = velocity[0]
    if (np.any(velocity != a) or np.any(family.velocity_jacobian(points))
            or np.any(family.acceleration(points))):
        raise ValueError("translation_transport needs a translation (DS = 0, R = 0)")
    ev = solver.solve(np.stack([x, y]))
    grad_x, grad_y = ev[1].gradient(x)[0], ev[0].gradient(y)[0]
    hess_x, hess_y = ev[1].hessian(x)[0], ev[0].hessian(y)[0]
    mixed = (a @ _dipole_corrector(solver, y, a).gradient(x)[0]
             - a @ fundamental_hessian(x, y)[0, 0] @ a)
    return [float(-a @ (grad_x + grad_y)),
            float(a @ hess_x @ a + 2.0 * mixed + a @ hess_y @ a)]


# ---------------------------------------------------------------------------
# Scaling oracle on the dilated disk
# ---------------------------------------------------------------------------

def disk_dilation_delta_n(x, y, order: int = 1) -> float:
    """d^order/dt^order at t = 0, for order 1 or 2, of the unit disk's
    Dirichlet Green's function under the dilation T_t = (1+t) id, in closed form.

    In complex notation, with s = 1 + t and y* = 1/conj(y), the scaling
    identity N_t(x, y) = N(x/s, y/s) reads N_t = Re log g(s)/(2 pi) plus a
    constant, where g(s) = x/s - s y*.  At s = 1, g = x - y*, g'/g = 1 - q
    and g''/g = q for q = 2x/g, so N' = Re(1 - q)/(2 pi) and
    N'' = Re(q - (1 - q)^2)/(2 pi).  At y = 0, N_t(x, 0) = (log s - log|x|)/(2 pi)
    gives 1/(2 pi) and -1/(2 pi).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, not {order!r}")
    z, w = complex(*np.asarray(x, dtype=float)), complex(*np.asarray(y, dtype=float))
    if w == 0.0:
        return (1.0 if order == 1 else -1.0) / (2.0 * np.pi)
    q = 2.0 * z / (z - 1.0 / w.conjugate())
    return (1.0 - q if order == 1 else q - (1.0 - q) ** 2).real / (2.0 * np.pi)


@dataclass
class RouteTriangle:
    """The formula, BVP and tangent routes of one probe pair.

    ``residual`` and ``n_unknowns`` summarize the base and BVP solves: the
    worst check-node residual and the number of kept charges.
    ``probe_warnings`` are the probe warnings on the base boundary, the only
    boundary the routes solve on.
    """

    formula: float
    bvp: float
    tangent: float
    residual: float
    n_unknowns: int
    probe_warnings: list[str]

    def err(self, *checked: float) -> float:
        """A route row's err: the worst relative gap |a - b| / (1 + max(|a|, |b|))
        among the formula, the BVP, the tangent and every further value
        ``checked`` (none: the three routes alone)."""
        values = (self.formula, self.bvp, self.tangent, *checked)
        return max(_rel(a, b) for a in values for b in values)

    def solve_details(self) -> dict:
        """The solve summary as report ``details``."""
        return {"solve_residual": self.residual, "n_unknowns": self.n_unknowns}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _triangle(formula: float, bvp: float, tangent: float,
              diagnostics: list[SolveDiagnostics], issued: list[str]) -> RouteTriangle:
    """The routes, with the probe warnings ``issued`` on the base boundary."""
    return RouteTriangle(formula, bvp, tangent, max(d.residual for d in diagnostics),
                         diagnostics[0].n_unknowns, issued)


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
                   x, y, config: GreensConfig | None = None) -> RouteTriangle:
    """Run all three first-variation routes for one probe pair."""
    x, y, solver, ev, messages = _route_poles(domain, mixed, x, y, config)
    formula = delta_n_formula(solver, family, ev)
    udot_y, bvp_diag = delta_n_bvp(solver, family, ev[1])
    bvp = float(udot_y.value(x[None, :])[0])
    tangent = delta_n_tangent(solver, family, x, y)
    return _triangle(formula, bvp, tangent, [*ev.diagnostics, bvp_diag], messages)


def delta2_n_routes(domain: Domain, mixed: MixedBoundary, family: PerturbationFamily,
                    x, y, config: GreensConfig | None = None) -> RouteTriangle:
    """Run all three second-variation routes for one probe pair.

    Three solves on the base matrix: the poles (x, y), their first
    variations, then the second variation for y; the tangent fits y on the
    same factors.  The first variations' gradient is evaluated once per
    piece, for the formula and the second BVP's data.
    """
    x, y, solver, ev, messages = _route_poles(domain, mixed, x, y, config)
    coeffs = chi_sigma(domain, family)
    udot, udot_diags = delta_n_bvp(solver, family, ev)
    gradients = _grid_gradients(solver, udot)  # per-column products: y's keep their bits
    formula = delta2_n_formula(solver, family, ev, udot, coeffs, gradients)
    uddot, uddot_diag = delta2_n_bvp(solver, family, ev[1], [g[1] for g in gradients], coeffs)
    bvp = float(uddot.value(x[None, :])[0])
    tangent = delta2_n_tangent(solver, family, x, y)
    return _triangle(formula, bvp, tangent, [*ev.diagnostics, *udot_diags, uddot_diag],
                     messages)
