"""Deformation families of the plane and their Jacobian calculus.

Three kinds of family T_t are supported: a dynamical flow driven by an
autonomous velocity field, an explicit quadratic-in-t Taylor family, and a
normal perturbation that moves the boundary along its own normals.  Every
family exposes the first/second deformation fields S and R with analytic
Jacobians, which feed the determinant and inverse-Jacobian derivative
formulas and the boundary data (normal velocity/acceleration) used by the
moving-domain integral formulas.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .geometry import BoundaryGrid, collar_extend, fourier_derivative, fourier_interpolate


# largest |t| a flow integration accepts
FLOW_T_MAX = 0.25


class PerturbationError(ValueError):
    """Raised for invalid fields, exhausted integrators, or failed checks."""


# ---------------------------------------------------------------------------
# Polynomial velocity fields (analytic derivatives to second order)
# ---------------------------------------------------------------------------

class PolynomialField:
    """Vector field with polynomial components of total degree <= 3.

    ``terms`` maps (component, px, py) -> coefficient for the monomial
    x1**px * x2**py in that component.
    """

    MAX_DEGREE = 3

    def __init__(self, terms: dict):
        self.terms = {}
        for (comp, px, py), coeff in terms.items():
            if comp not in (0, 1) or px < 0 or py < 0 or px + py > self.MAX_DEGREE:
                raise PerturbationError(f"bad monomial {(comp, px, py)}")
            if coeff != 0.0:
                self.terms[(comp, px, py)] = float(coeff)
        self._degree = max((max(px, py) for _, px, py in self.terms), default=1)

    def _powers(self, points: np.ndarray):
        """Tables [1, x, x^2, ...] and [1, y, y^2, ...] of (N, 2) points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return tuple([np.ones_like(u), u] + [u ** k for k in range(2, self._degree + 1)]
                     for u in points.T)

    def _values(self, xs, ys) -> np.ndarray:
        """Field values from power tables, component-major (2, N)."""
        out = np.zeros((2,) + xs[0].shape)
        for (comp, px, py), c in self.terms.items():
            out[comp] += c * xs[px] * ys[py]
        return out

    def _jacobians(self, xs, ys) -> np.ndarray:
        """Jacobians dv_i/dx_j from power tables, component-major (2, 2, N)."""
        out = np.zeros((2, 2) + xs[0].shape)
        for (comp, px, py), c in self.terms.items():
            if px:
                out[comp, 0] += c * px * xs[px - 1] * ys[py]
            if py:
                out[comp, 1] += c * py * xs[px] * ys[py - 1]
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self._values(*self._powers(points)).T)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self._jacobians(*self._powers(points)).transpose(2, 0, 1))

    def second_derivative(self, points: np.ndarray) -> np.ndarray:
        """Tensor H[n, i, j, k] = d^2 v_i / dx_j dx_k at each point."""
        xs, ys = self._powers(points)
        out = np.zeros((xs[0].shape[0], 2, 2, 2))
        for (comp, px, py), c in self.terms.items():
            if px >= 2:
                out[:, comp, 0, 0] += c * px * (px - 1) * xs[px - 2] * ys[py]
            if px >= 1 and py >= 1:
                mixed = c * px * py * xs[px - 1] * ys[py - 1]
                out[:, comp, 0, 1] += mixed
                out[:, comp, 1, 0] += mixed
            if py >= 2:
                out[:, comp, 1, 1] += c * py * (py - 1) * xs[px] * ys[py - 2]
        return out


def dilation() -> PolynomialField:
    return PolynomialField({(0, 1, 0): 1.0, (1, 0, 1): 1.0})


def rotation() -> PolynomialField:
    return PolynomialField({(0, 0, 1): -1.0, (1, 1, 0): 1.0})


def translation(dx: float = 1.0, dy: float = 0.0) -> PolynomialField:
    return PolynomialField({(0, 0, 0): dx, (1, 0, 0): dy})


def shear(a: float = 1.0) -> PolynomialField:
    return PolynomialField({(0, 0, 1): a})


def zero_field() -> PolynomialField:
    return PolynomialField({})


def random_polynomial_field(rng: np.random.Generator, degree: int = 2,
                            scale: float = 0.3) -> PolynomialField:
    terms = {}
    for comp in (0, 1):
        for px in range(degree + 1):
            for py in range(degree + 1 - px):
                terms[(comp, px, py)] = scale * rng.uniform(-1.0, 1.0)
    return PolynomialField(terms)


def make_field(name: str, **params) -> PolynomialField:
    """Velocity-field library lookup used by config files."""
    if name == "dilation":
        return dilation()
    if name == "rotation":
        return rotation()
    if name == "translation":
        return translation(params.get("dx", 1.0), params.get("dy", 0.0))
    if name == "shear":
        return shear(params.get("a", 1.0))
    if name == "polynomial":
        terms = {}
        for key, coeff in params["terms"].items():
            comp, px, py = (int(v) for v in key.split(","))
            terms[(comp, px, py)] = float(coeff)
        return PolynomialField(terms)
    raise PerturbationError(f"unknown velocity field {name!r}")


# ---------------------------------------------------------------------------
# Deformation families
# ---------------------------------------------------------------------------

class PerturbationFamily:
    """Common interface: the map T_t, its spatial Jacobian, and the S/R fields."""

    def map(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def map_jacobian(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def map_and_jacobian(self, points: np.ndarray, t: float):
        """(T_t(points), DT_t(points)) for callers that need both."""
        return self.map(points, t), self.map_jacobian(points, t)

    def velocity(self, points: np.ndarray) -> np.ndarray:
        """First deformation field S = dT_t/dt at t=0."""
        raise NotImplementedError

    def acceleration(self, points: np.ndarray) -> np.ndarray:
        """Second deformation field R = d^2 T_t/dt^2 at t=0."""
        raise NotImplementedError

    def velocity_jacobian(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def acceleration_jacobian(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class TaylorFamily(PerturbationFamily):
    """T_t = I + t S + (t^2/2) R with no higher-order remainder."""

    def __init__(self, s_field: PolynomialField, r_field: PolynomialField | None = None):
        self.s_field = s_field
        self.r_field = r_field if r_field is not None else zero_field()

    def map(self, points, t):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points + t * self.s_field(points) + 0.5 * t * t * self.r_field(points)

    def map_jacobian(self, points, t):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        eye = np.broadcast_to(np.eye(2), (points.shape[0], 2, 2))
        return (eye + t * self.s_field.jacobian(points)
                + 0.5 * t * t * self.r_field.jacobian(points))

    def velocity(self, points):
        return self.s_field(points)

    def acceleration(self, points):
        return self.r_field(points)

    def velocity_jacobian(self, points):
        return self.s_field.jacobian(points)

    def acceleration_jacobian(self, points):
        return self.r_field.jacobian(points)


class FlowFamily(PerturbationFamily):
    """Deformation by the time-t map of dX/dt = v(X).

    One classical RK4 integration yields both the map and its Jacobian (the
    Jacobian by the variational equation dJ/dt = Dv(X) J), keeping the
    O(h^4) accuracy of the integrator and avoiding spatial differencing.
    Here S = v and R = (v.grad) v with analytic Jacobians.
    """

    def __init__(self, field: PolynomialField, step: float = 1e-2):
        self.field = field
        self.step = step

    def _rhs(self, x, jac):
        """(v(X), Dv(X) J) on component-major states (2, N) and (2, 2, N)."""
        tables = self.field._powers(x.T)
        dv = self.field._jacobians(*tables)
        return self.field._values(*tables), dv[:, 0, None] * jac[0] + dv[:, 1, None] * jac[1]

    def _integrate(self, points, t):
        if abs(t) > FLOW_T_MAX:
            raise PerturbationError(f"|t|={abs(t)} exceeds t_max={FLOW_T_MAX}")
        n_steps = max(1, int(np.ceil(abs(t) / self.step)))
        if n_steps > 10000:
            raise PerturbationError("step-count overflow in flow integration")
        h = t / n_steps
        x = np.atleast_2d(np.asarray(points, dtype=float)).T.copy()
        jac = np.eye(2)[:, :, None].repeat(x.shape[1], axis=2)
        for _ in range(n_steps):
            k1 = self._rhs(x, jac)
            k2 = self._rhs(x + 0.5 * h * k1[0], jac + 0.5 * h * k1[1])
            k3 = self._rhs(x + 0.5 * h * k2[0], jac + 0.5 * h * k2[1])
            k4 = self._rhs(x + h * k3[0], jac + h * k3[1])
            x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            jac = jac + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return np.ascontiguousarray(x.T), np.ascontiguousarray(jac.transpose(2, 0, 1))

    def map(self, points, t, *, with_jacobian=False):
        """T_t(points), or the pair (T_t, DT_t) of one integration with ``with_jacobian``."""
        x, jac = self._integrate(points, t)
        return (x, jac) if with_jacobian else x

    def map_jacobian(self, points, t):
        return self._integrate(points, t)[1]

    def map_and_jacobian(self, points, t):
        # Through map: perfbench times map and map_jacobian as the flow layer.
        return self.map(points, t, with_jacobian=True)

    def velocity(self, points):
        return self.field(points)

    def acceleration(self, points):
        # R = (v.grad)v = Dv v
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("nij,nj->ni", self.field.jacobian(points), self.field(points))

    def velocity_jacobian(self, points):
        return self.field.jacobian(points)

    def acceleration_jacobian(self, points):
        # D[(v.grad)v] = (D^2 v)[v] + (Dv)(Dv)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dv = self.field.jacobian(points)
        d2v = self.field.second_derivative(points)
        return (np.einsum("nijk,nk->nij", d2v, self.field(points))
                + np.einsum("nik,nkj->nij", dv, dv))


def _bump(u: np.ndarray) -> np.ndarray:
    """C^2 cutoff (1 - u^2)^3 with value 1 and zero slope at u=0, vanishing for |u|>=1."""
    return np.maximum(1.0 - u ** 2, 0.0) ** 3


def _bump_prime(u: np.ndarray) -> np.ndarray:
    return -6.0 * u * np.maximum(1.0 - u ** 2, 0.0) ** 2


class NormalFamily(PerturbationFamily):
    """Boundary motion x -> x + t rho(x) nu(x) along the collar-extended normal.

    S = taper(n/h) rho~ nu~ in the collar |n| <= h of ``collar_extend(grid,
    rho)`` and R = 0.  The even cutoff has value 1 and zero slope on the
    boundary, so S = rho nu and d(rho~)/dnu = 0 there, and it vanishes to
    second order at |n| = h, where the collar ends: S is C^2 across the
    edge.  Points outside the collar do not move.
    """

    def __init__(self, grid: BoundaryGrid, rho_nodal: np.ndarray):
        self.collar = collar_extend(grid, rho_nodal)
        self._drho_dtheta = fourier_derivative(self.collar.values)

    def velocity(self, points):
        inside, feet = self.collar.locate(points)
        out = np.zeros((inside.size, 2))
        rho = fourier_interpolate(self.collar.values, feet.theta)
        taper = _bump(feet.offset / self.collar.half_width)
        out[inside] = (rho * taper)[:, None] * feet.normal
        return out

    def velocity_jacobian(self, points):
        inside, (theta, offset, tau, nu, speed, kappa) = self.collar.locate(points)
        out = np.zeros((inside.size, 2, 2))
        rho = fourier_interpolate(self.collar.values, theta)
        drho_ds = fourier_interpolate(self._drho_dtheta, theta) / speed
        h = self.collar.half_width
        taper = _bump(offset / h)
        taper_p = _bump_prime(offset / h) / h
        stretch = 1.0 + offset * kappa
        # grad(theta*) = tau/(speed*stretch), grad(n) = nu
        grad_scalar = (taper * drho_ds / stretch)[:, None] * tau \
            + (rho * taper_p)[:, None] * nu
        dnu = (taper * rho * kappa / stretch)[:, None, None] \
            * np.einsum("ni,nj->nij", tau, tau)
        out[inside] = np.einsum("ni,nj->nij", nu, grad_scalar) + dnu
        return out

    def acceleration(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros_like(points)

    def acceleration_jacobian(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros((points.shape[0], 2, 2))

    def map(self, points, t):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points + t * self.velocity(points)

    def map_jacobian(self, points, t):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        eye = np.broadcast_to(np.eye(2), (points.shape[0], 2, 2))
        return eye + t * self.velocity_jacobian(points)


# ---------------------------------------------------------------------------
# Jacobian-derivative formulas
# ---------------------------------------------------------------------------

def det_derivatives(family: PerturbationFamily, points: np.ndarray):
    """First and second t-derivatives of det DT_t at t=0.

    Returns (div S, div R + (div S)^2 - tr(DS DS)).  Note the last term is
    the trace of the matrix square, not the squared Frobenius norm; the
    rotation flow (volume preserving) pins the sign.
    """
    ds = family.velocity_jacobian(points)
    dr = family.acceleration_jacobian(points)
    div_s = np.trace(ds, axis1=1, axis2=2)
    div_r = np.trace(dr, axis1=1, axis2=2)
    tr_ds2 = np.einsum("nij,nji->n", ds, ds)
    return div_s, div_r + div_s ** 2 - tr_ds2


def inverse_jacobian_derivatives(family: PerturbationFamily, points: np.ndarray):
    """First and second t-derivatives of (DT_t)^{-1} at t=0: (-DS, 2(DS)^2 - DR)."""
    ds = family.velocity_jacobian(points)
    dr = family.acceleration_jacobian(points)
    return -ds, 2.0 * np.einsum("nik,nkj->nij", ds, ds) - dr


# ---------------------------------------------------------------------------
# Minor-determinant expansion
# ---------------------------------------------------------------------------

def minor_polynomial(ds: np.ndarray, dr: np.ndarray, i: int, j: int) -> np.ndarray:
    """Exact t-coefficients, ascending, of the (i,j) minor of I + t DS + (t^2/2) DR.

    The minor is the determinant of the Jacobian with row i (component) and
    column j (derivative) deleted, DS[a, b] = d S^a / d x_b; it is summed
    over permutations (Leibniz), each term a product of quadratics in t, so
    the result has degree 2(d-1) with no truncation.
    """
    ds = np.asarray(ds, dtype=float)
    dr = np.asarray(dr, dtype=float)
    d = ds.shape[0]
    if ds.shape != (d, d) or dr.shape != (d, d):
        raise PerturbationError("DS and DR must be square matrices of equal size")
    # entry (a, b) of the submatrix as the coefficients (t^0, t^1, t^2)
    entries = np.delete(np.delete(np.stack([np.eye(d), ds, 0.5 * dr], axis=-1),
                                  i, axis=0), j, axis=1)
    out = np.zeros(2 * (d - 1) + 1)
    for perm in itertools.permutations(range(d - 1)):
        inversions = sum(p > q for a, p in enumerate(perm) for q in perm[a + 1:])
        term = functools.reduce(P.polymul, (entries[a, b] for a, b in enumerate(perm)),
                                np.ones(1))
        out[:term.size] += (-1.0) ** inversions * term
    return out


def _predicted_minor(ds: np.ndarray, dr: np.ndarray, i: int, j: int) -> np.ndarray:
    """The (t^0, t^1, t^2) coefficients of the quadratic model of the (i,j)
    minor of I + t DS + (t^2/2) DR, conventions as in ``minor_polynomial``."""
    d = ds.shape[0]
    others = [k for k in range(d) if k != i]
    if i == j:
        lin = sum(ds[k, k] for k in others)
        quad = 0.5 * sum(dr[k, k] for k in others)
        quad += sum(ds[p, p] * ds[q, q] - ds[q, p] * ds[p, q]
                    for a, p in enumerate(others) for q in others[a + 1:])
        return np.array([1.0, lin, quad])
    sign = (-1.0) ** (j - i + 1)
    lin = ds[j, i]
    quad = 0.5 * dr[j, i]
    quad += sum(ds[j, i] * ds[p, p] - ds[p, i] * ds[j, p]
                for p in range(d) if p not in (i, j))
    return sign * np.array([0.0, lin, quad])


# ---------------------------------------------------------------------------
# Boundary data of a family on a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryData:
    """Nodal deformation data on one boundary component."""

    velocity: np.ndarray           # S at nodes, (M, 2)
    acceleration: np.ndarray       # R at nodes, (M, 2)
    velocity_jacobian: np.ndarray  # DS at nodes, (M, 2, 2)
    normal_velocity: np.ndarray    # delta rho = S.nu
    normal_acceleration: np.ndarray  # delta^2 rho = R.nu
    tangential_velocity: np.ndarray  # S_tau = S - (S.nu) nu, (M, 2)


def boundary_data(family: PerturbationFamily, grid: BoundaryGrid) -> BoundaryData:
    s = family.velocity(grid.nodes)
    r = family.acceleration(grid.nodes)
    ds = family.velocity_jacobian(grid.nodes)
    rho = np.einsum("ni,ni->n", s, grid.normal)
    rho2 = np.einsum("ni,ni->n", r, grid.normal)
    s_tau = s - rho[:, None] * grid.normal
    return BoundaryData(s, r, ds, rho, rho2, s_tau)


def advective_normal_component(data: BoundaryData, grid: BoundaryGrid) -> np.ndarray:
    """Nodal [(S.grad)S].nu computed from the velocity Jacobian."""
    adv = np.einsum("nij,nj->ni", data.velocity_jacobian, data.velocity)
    return np.einsum("ni,ni->n", adv, grid.normal)
