"""First and second derivative formulas for integrals over moving domains.

Each formula evaluates a derivative at t=0 from data on the undeformed
domain and returns a float.  ``fd_reference`` is the independent oracle: it
differentiates the pulled-back integral, where volume integrals transform
with det DT_t on fixed interior nodes and boundary integrals are recomputed
on pushed nodes with stretched weights.  ``cases.variation_result`` turns a
formula and its oracles into a report row.
"""

from __future__ import annotations

import numpy as np

from ._fd import FDResult, derivative_ladder
from .geometry import Domain, pushed_frame, tangential_grad
from .integrands import IntegrandSpec, VectorIntegrandSpec
from .perturbation import (PerturbationError, PerturbationFamily,
                           advective_normal_component, boundary_data)


# ---------------------------------------------------------------------------
# Pullback / pushforward integrals (the oracle side)
# ---------------------------------------------------------------------------

def pullback_volume_integral(domain: Domain, family: PerturbationFamily,
                             c: IntegrandSpec, t: float) -> float:
    """integral of c(., t) over T_t(Omega), pulled back to fixed interior nodes."""
    interior = domain.interior()
    img, jac = family.map_and_jacobian(interior.nodes, t)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if np.any(det <= 0.0):
        raise PerturbationError(f"deformation folds the domain at t={t}")
    return float(np.dot(interior.weights, c.value(img, t) * det))


def pushed_area_integral(domain: Domain, family: PerturbationFamily,
                         c: IntegrandSpec, t: float) -> float:
    """integral of c(., t) over the deformed boundary with stretched weights."""
    pushed = (pushed_frame(grid.curve, grid.thetas, family, t) for grid in domain.grids)
    return sum(p.integrate(c.value(p.nodes, t)) for p in pushed)


def pushed_flux_integral(domain: Domain, family: PerturbationFamily,
                         a: VectorIntegrandSpec, t: float) -> float:
    """integral of nu . a(., t) over the deformed boundary."""
    pushed = (pushed_frame(grid.curve, grid.thetas, family, t) for grid in domain.grids)
    return sum(p.integrate(np.einsum("ni,ni->n", a.value(p.nodes, t), p.normal))
               for p in pushed)


def fd_reference(kind: str, domain: Domain, family: PerturbationFamily,
                 integrand, order: int = 1, ladder=None) -> FDResult:
    """FD derivative of the pulled-back integral of the given kind at t=0."""
    integrals = {"volume": pullback_volume_integral, "area": pushed_area_integral,
                 "flux": pushed_flux_integral}
    if kind not in integrals:
        raise ValueError(f"unknown integral kind {kind!r}")
    return derivative_ladder(lambda t: integrals[kind](domain, family, integrand, t),
                             order=order, ladder=ladder)


# ---------------------------------------------------------------------------
# Volume formulas
# ---------------------------------------------------------------------------

def first_volume(domain: Domain, family: PerturbationFamily, c: IntegrandSpec) -> float:
    """d/dt of the volume integral at t=0: interior c_t plus boundary c0*(S.nu)."""
    interior = domain.interior()
    value = float(np.dot(interior.weights, c.dt(interior.nodes, 0.0)))
    for grid in domain.grids:
        data = boundary_data(family, grid)
        value += grid.integrate(c.value(grid.nodes, 0.0) * data.normal_velocity)
    return value


def second_volume(domain: Domain, family: PerturbationFamily, c: IntegrandSpec) -> float:
    """d^2/dt^2 of the volume integral at t=0.

    Interior c_tt plus <2 c_t + div(c0 S), S.nu> plus
    <c0, R.nu - [(S.grad)S].nu> on the boundary.
    """
    interior = domain.interior()
    value = float(np.dot(interior.weights, c.dtt(interior.nodes, 0.0)))
    for grid in domain.grids:
        data = boundary_data(family, grid)
        c0 = c.value(grid.nodes, 0.0)
        cdot = c.dt(grid.nodes, 0.0)
        grad = c.gradient(grid.nodes, 0.0)
        div_s = np.trace(data.velocity_jacobian, axis1=1, axis2=2)
        div_c0s = np.einsum("ni,ni->n", grad, data.velocity) + c0 * div_s
        value += grid.integrate((2.0 * cdot + div_c0s) * data.normal_velocity)
        adv = advective_normal_component(data, grid)
        value += grid.integrate(c0 * (data.normal_acceleration - adv))
    return value


# ---------------------------------------------------------------------------
# Area formulas
# ---------------------------------------------------------------------------

def first_area(domain: Domain, family: PerturbationFamily, c: IntegrandSpec) -> float:
    """d/dt of the boundary integral: c_t plus (kappa c0 + dc0/dnu)(S.nu)."""
    value = 0.0
    for grid in domain.grids:
        data = boundary_data(family, grid)
        c0 = c.value(grid.nodes, 0.0)
        dn_c = np.einsum("ni,ni->n", c.gradient(grid.nodes, 0.0), grid.normal)
        value += grid.integrate(c.dt(grid.nodes, 0.0))
        value += grid.integrate((grid.curvature * c0 + dn_c) * data.normal_velocity)
    return value


def _scaled_field_divergence(grid, data, c: IntegrandSpec) -> np.ndarray:
    """Nodal div[(kappa c0 + dc0/dnu) S] using tubular-coordinate gradients.

    The curvature factor extends off the boundary as the offset-curve
    curvature (gradient (dkappa/ds) tau - kappa^2 nu) and the normal field
    as the collar normal (so D nu = kappa tau tau), which closes the
    derivative of the bracket without sampling off-boundary points.
    """
    c0 = c.value(grid.nodes, 0.0)
    grad_c = c.gradient(grid.nodes, 0.0)
    hess_c = c.hessian(grid.nodes, 0.0)
    kappa = grid.curvature
    dkappa_ds = tangential_grad(grid, kappa)
    s_dot_tau = np.einsum("ni,ni->n", data.velocity, grid.tangent)
    div_s = np.trace(data.velocity_jacobian, axis1=1, axis2=2)
    dn_c = np.einsum("ni,ni->n", grad_c, grid.normal)
    dt_c = np.einsum("ni,ni->n", grad_c, grid.tangent)
    bracket = kappa * c0 + dn_c
    grad_dot_s = (c0 * (dkappa_ds * s_dot_tau - kappa ** 2 * data.normal_velocity)
                  + kappa * np.einsum("ni,ni->n", grad_c, data.velocity)
                  + kappa * dt_c * s_dot_tau
                  + np.einsum("ni,nij,nj->n", data.velocity, hess_c, grid.normal))
    return grad_dot_s + bracket * div_s


def second_area(domain: Domain, family: PerturbationFamily, c: IntegrandSpec) -> float:
    """d^2/dt^2 of the boundary integral at t=0.

    Assembled from the flux rule applied to the moving unit-normal field
    scaled by c: the normal-rate terms contribute -<c0, |d rho/ds|^2> and
    -2<(d^2 rho/ds^2) c0 + (d rho/ds)(d c0/ds), rho>, the transported
    bracket is div[(kappa c0 + dc0/dnu)S] in tubular coordinates, and the
    curvature pairing closes with rho_tt - [(S.grad)S].nu.  The pairing of
    d^2 c0/ds^2 with rho^2 is kept in integrated-by-parts form
    -<dc0/ds, d(rho^2)/ds> so only first derivatives of user data appear.
    """
    value = 0.0
    for grid in domain.grids:
        data = boundary_data(family, grid)
        rho = data.normal_velocity
        c0 = c.value(grid.nodes, 0.0)
        cdot = c.dt(grid.nodes, 0.0)
        dn_c = np.einsum("ni,ni->n", c.gradient(grid.nodes, 0.0), grid.normal)
        dn_cdot = np.einsum("ni,ni->n", c.dt_gradient(grid.nodes, 0.0), grid.normal)
        drho_ds = tangential_grad(grid, rho)
        d2rho_ds2 = tangential_grad(grid, drho_ds)
        value += grid.integrate(c.dtt(grid.nodes, 0.0))
        value -= grid.integrate(c0 * drho_ds ** 2)
        transported = (-2.0 * d2rho_ds2 * c0
                       + 2.0 * grid.curvature * cdot + 2.0 * dn_cdot
                       + _scaled_field_divergence(grid, data, c))
        value += grid.integrate(transported * rho)
        # integrated-by-parts form of +<d^2 c0/ds^2, rho^2>
        dc0_ds = tangential_grad(grid, c0)
        value -= grid.integrate(dc0_ds * tangential_grad(grid, rho ** 2))
        adv = advective_normal_component(data, grid)
        bracket = grid.curvature * c0 + dn_c
        value += grid.integrate(bracket * (data.normal_acceleration - adv))
    return value


# ---------------------------------------------------------------------------
# Boundary-flux formulas for vector fields
# ---------------------------------------------------------------------------

def boundary_flux_first(domain: Domain, family: PerturbationFamily,
                        a: VectorIntegrandSpec) -> float:
    """d/dt of the flux integral: nu . a_t plus (div a)(S.nu)."""
    value = 0.0
    for grid in domain.grids:
        data = boundary_data(family, grid)
        at = a.dt(grid.nodes, 0.0)
        div = a.divergence(grid.nodes, 0.0)
        value += grid.integrate(np.einsum("ni,ni->n", at, grid.normal))
        value += grid.integrate(div * data.normal_velocity)
    return value


def boundary_flux_second(domain: Domain, family: PerturbationFamily,
                         a: VectorIntegrandSpec) -> float:
    """d^2/dt^2 of the flux integral at t=0.

    nu . a_tt plus <2 div a_t + grad(div a).S + (div a)(div S), S.nu>
    plus <div a, R.nu - [(S.grad)S].nu>.
    """
    if a.dtt is None or a.divergence_gradient is None:
        raise ValueError("second flux derivative needs a_tt and grad(div a)")
    value = 0.0
    for grid in domain.grids:
        data = boundary_data(family, grid)
        value += grid.integrate(np.einsum("ni,ni->n", a.dtt(grid.nodes, 0.0),
                                          grid.normal))
        div = a.divergence(grid.nodes, 0.0)
        div_t = a.divergence_dt(grid.nodes, 0.0)
        grad_div = a.divergence_gradient(grid.nodes, 0.0)
        div_s = np.trace(data.velocity_jacobian, axis1=1, axis2=2)
        transported = (2.0 * div_t
                       + np.einsum("ni,ni->n", grad_div, data.velocity)
                       + div * div_s)
        value += grid.integrate(transported * data.normal_velocity)
        adv = advective_normal_component(data, grid)
        value += grid.integrate(div * (data.normal_acceleration - adv))
    return value


# ---------------------------------------------------------------------------
# Normal-vector rate
# ---------------------------------------------------------------------------

def nu_dot(domain: Domain, family: PerturbationFamily):
    """Nodal d nu/dt at t=0 per component: -(d(S.nu)/ds) tau."""
    out = []
    for grid in domain.grids:
        rho = boundary_data(family, grid).normal_velocity
        out.append(-tangential_grad(grid, rho)[:, None] * grid.tangent)
    return out


def nu_dot_fd(domain: Domain, family: PerturbationFamily):
    """Nodal d nu/dt at t=0 per component, as the FD engine's result at its
    default first-derivative ladder (value (M, 2)): the independent oracle of
    ``nu_dot``.

    nu_dot is the rate of the moving normal field seen at a fixed spatial
    point, so each base node is projected onto the deformed curve and the
    normal there is differenced in t.  The projection is Gauss-Newton on
    |p - y(theta)|^2 with y = T_t(x(theta)) and y' = DT_t x'(theta), one flow
    integration per iteration: theta += (p - y).y' / |y'|^2.  The nodes sit
    O(t) from the deformed curve, so each iteration gains about four digits.
    """
    def normal_at(grid, t):
        theta = grid.thetas.copy()
        for _ in range(30):
            y, jac = family.map_and_jacobian(grid.curve.point(theta), t)
            dy = np.einsum("nij,nj->ni", jac, grid.curve.velocity(theta))
            step = (np.einsum("ni,ni->n", grid.nodes - y, dy)
                    / np.einsum("ni,ni->n", dy, dy))
            theta += step
            if np.max(np.abs(step)) < 1e-13:
                break
        return pushed_frame(grid.curve, theta, family, t).normal

    return [derivative_ladder(lambda t: normal_at(grid, t), order=1) for grid in domain.grids]
