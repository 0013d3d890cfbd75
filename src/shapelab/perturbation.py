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
import random
from dataclasses import dataclass

import numpy as np

from .geometry import (BoundaryGrid, PointSet, collar_extend, fourier_derivative,
                       fourier_interpolate)
from .integrands import _shifted, monomial_powers, monomials


# largest |t| a flow integration accepts
FLOW_T_MAX = 0.25

# rows of a PolynomialField table (also the rows of a packed flow state)
VALUE, JACOBIAN, HESSIAN = slice(0, 2), slice(2, 6), slice(6, 14)
VALUE_AND_JACOBIAN = slice(0, 6)


class PerturbationError(ValueError):
    """Raised for invalid fields, exhausted integrators, or failed checks."""


# ---------------------------------------------------------------------------
# Polynomial velocity fields (analytic derivatives to second order)
# ---------------------------------------------------------------------------

class PolynomialField:
    """Vector field with polynomial components of total degree <= 3.

    ``terms`` maps (component, px, py) -> coefficient for the monomial
    x1**px * x2**py in that component.  The field is stored as one table
    over the monomials x1**a * x2**b with a + b up to its degree: row r
    holds the coefficients of v_i (rows 0-1), dv_i/dx_j (rows 2-5, ``i``
    major) or d^2 v_i/dx_j dx_k (rows 6-13), the derivative rows built by
    index shifts of the coefficients.  An evaluation builds the monomials
    once (``integrands.monomials``) and contracts only the rows it needs.
    """

    MAX_DEGREE = 3

    def __init__(self, terms: dict):
        coeffs = {}
        for (comp, px, py), coeff in terms.items():
            if comp not in (0, 1) or px < 0 or py < 0 or px + py > self.MAX_DEGREE:
                raise PerturbationError(f"bad monomial {(comp, px, py)}")
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise PerturbationError(f"non-finite coefficient {coeff} of monomial "
                                        f"{(comp, px, py)}")
            if coeff != 0.0:
                coeffs[(comp, px, py)] = coeff
        self.degree = degree = max((px + py for _, px, py in coeffs), default=0)
        c = np.zeros((degree + 1, degree + 1, 2))  # c[px, py, comp]
        for (comp, px, py), coeff in coeffs.items():
            c[px, py, comp] = coeff
        cx, cy = _shifted(c, 0), _shifted(c, 1)
        # derivative 0: value, 1-2: d/dx_j, 3-5: d^2/dx_j dx_k with 3 + j + k
        derivs = np.stack([c, cx, cy, _shifted(cx, 0), _shifted(cx, 1), _shifted(cy, 1)],
                          axis=-1)
        # (component, derivative) of each table row
        comps, orders = np.array(
            [(i, 0) for i in range(2)]
            + [(i, 1 + j) for i in range(2) for j in range(2)]
            + [(i, 3 + j + k) for i in range(2) for j in range(2) for k in range(2)]).T
        px, py = np.array(monomial_powers(degree)).T
        self.table = np.ascontiguousarray(derivs[px, py][:, comps, orders].T)

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, keyed (component, px, py)."""
        return {(comp, px, py): float(c) for comp in (0, 1)
                for (px, py), c in zip(monomial_powers(self.degree), self.table[comp])
                if c != 0.0}

    def _contract(self, xy: np.ndarray, rows: slice, out=None, basis=None) -> np.ndarray:
        """Table ``rows`` at component-major points (2, N), one matrix product
        with the ``monomials`` there.  ``basis`` holds them to this field's
        degree or higher (a lower degree's are a prefix), or they are built
        here; ``out`` receives the rows."""
        if basis is None:
            basis = monomials(xy, self.degree)
        return np.matmul(self.table[rows], basis[:self.table.shape[1]], out=out)

    def _at(self, points: np.ndarray, rows: slice, tail: tuple) -> np.ndarray:
        """Table ``rows`` at (N, 2) points, point-major with trailing shape ``tail``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = self._contract(points.T, rows).reshape(tail + (-1,))
        return np.ascontiguousarray(np.moveaxis(out, -1, 0))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self._at(points, VALUE, (2,))

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        return self._at(points, JACOBIAN, (2, 2))

    def second_derivative(self, points: np.ndarray) -> np.ndarray:
        """Tensor H[n, i, j, k] = d^2 v_i / dx_j dx_k at each point."""
        return self._at(points, HESSIAN, (2, 2, 2))


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


def random_polynomial_field(rng: random.Random, degree: int = 2,
                            scale: float = 0.3) -> PolynomialField:
    terms = {}
    for comp in (0, 1):
        for px in range(degree + 1):
            for py in range(degree + 1 - px):
                terms[(comp, px, py)] = scale * rng.uniform(-1.0, 1.0)
    return PolynomialField(terms)


# ---------------------------------------------------------------------------
# Deformation families
# ---------------------------------------------------------------------------

class PerturbationFamily:
    """Common interface: the map T_t, its spatial Jacobian, and the S/R fields."""

    def map(self, points: np.ndarray, t: float, *, with_jacobian: bool = False):
        """T_t(points), or the pair (T_t(points), DT_t(points)) with ``with_jacobian``."""
        raise NotImplementedError

    def map_jacobian(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

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


def _jacobian_rows(rows: np.ndarray) -> np.ndarray:
    """Point-major (N, 2, 2) Jacobians from component-major rows (4, N)."""
    return rows.reshape(2, 2, -1).transpose(2, 0, 1)


_IDENTITY_ROWS = np.eye(2).reshape(4, 1)  # the identity as component-major Jacobian rows


class TaylorFamily(PerturbationFamily):
    """T_t = I + t S + (t^2/2) R with no higher-order remainder."""

    def __init__(self, s_field: PolynomialField, r_field: PolynomialField | None = None):
        self.s_field = s_field
        self.r_field = r_field if r_field is not None else zero_field()

    def _rows(self, points: np.ndarray, rows: slice):
        """Table ``rows`` of S and of R at (N, 2) points, on one monomial basis."""
        xy = points.T
        basis = monomials(xy, max(self.s_field.degree, self.r_field.degree))
        return [f._contract(xy, rows, basis=basis) for f in (self.s_field, self.r_field)]

    @staticmethod
    def _jacobian(ds, dr, t):
        """I + t DS + (t^2/2) DR, formed on component-major Jacobian rows."""
        return _jacobian_rows(_IDENTITY_ROWS + t * ds + 0.5 * t * t * dr)

    def map(self, points, t, *, with_jacobian=False):
        """T_t(points), or the pair (T_t, DT_t) from one basis with ``with_jacobian``."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s, r = self._rows(points, VALUE_AND_JACOBIAN if with_jacobian else VALUE)
        image = points + t * s[VALUE].T + 0.5 * t * t * r[VALUE].T
        return (image, self._jacobian(s[JACOBIAN], r[JACOBIAN], t)) if with_jacobian else image

    def map_jacobian(self, points, t):
        return self._jacobian(*self._rows(np.atleast_2d(np.asarray(points, dtype=float)),
                                          JACOBIAN), t)

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
    X and J travel as one packed (6, N) state (x, y, J00, J01, J10, J11),
    so each RK4 stage is one field evaluation of the value and Jacobian
    rows plus whole-state updates; T_0 is the identity, returned without
    integrating.  Here S = v and R = (v.grad) v with analytic Jacobians.
    """

    def __init__(self, field: PolynomialField, step: float = 1e-2):
        if not (np.isfinite(step) and step > 0.0):
            raise PerturbationError(f"flow step must be finite and positive, not {step!r}")
        self.field = field
        self.step = step

    def _integrate(self, points, t):
        if not np.isfinite(t):
            raise PerturbationError(f"flow time must be finite, not {t!r}")
        if abs(t) > FLOW_T_MAX:
            raise PerturbationError(f"|t|={abs(t)} exceeds t_max={FLOW_T_MAX}")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        if t == 0:
            return points.copy(), np.tile(np.eye(2), (n, 1, 1))
        n_steps = int(np.ceil(abs(t) / self.step))
        if n_steps > 10000:
            raise PerturbationError("step-count overflow in flow integration")
        state = self._rk4(points, t / n_steps, n_steps)
        return (np.ascontiguousarray(state[VALUE].T),
                np.ascontiguousarray(_jacobian_rows(state[JACOBIAN])))

    def _rk4(self, points, h, n_steps):
        """Packed state (x, y, J00, J01, J10, J11) after ``n_steps`` RK4 steps of ``h``."""
        n = len(points)
        state = np.empty((6, n))
        state[VALUE] = points.T
        state[JACOBIAN] = _IDENTITY_ROWS
        rates, stage, total = (np.empty_like(state) for _ in range(3))
        dv = np.empty((4, n))
        basis = np.empty((len(monomial_powers(self.field.degree)), n))

        def rhs(s, out):
            """out <- (v(X), Dv(X) J) of the packed state s; Dv passes through dv."""
            self.field._contract(s[VALUE], VALUE_AND_JACOBIAN, out=out,
                                 basis=monomials(s[VALUE], self.field.degree, basis))
            dv[:] = out[JACOBIAN]
            np.einsum("ijn,jkn->ikn", dv.reshape(2, 2, n), s[JACOBIAN].reshape(2, 2, n),
                      out=out[JACOBIAN].reshape(2, 2, n))

        for _ in range(n_steps):
            # total sums k1 + 2 k2 + 2 k3 + k4 left to right, k1 written in place;
            # the stages take k1 h/2, (2 k2) h/4 and (2 k3) h/2: doubling is exact
            rhs(state, total)
            k = total
            for shift, weight in ((0.5 * h, 2.0), (0.25 * h, 2.0), (0.5 * h, 1.0)):
                np.multiply(k, shift, out=stage)
                stage += state
                rhs(stage, rates)
                rates *= weight
                total += rates
                k = rates
            total *= h / 6.0
            state += total
        return state

    def map(self, points, t, *, with_jacobian=False):
        """T_t(points), or the pair (T_t, DT_t) of one integration with ``with_jacobian``."""
        x, jac = self._integrate(points, t)
        return (x, jac) if with_jacobian else x

    def map_jacobian(self, points, t):
        return self._integrate(points, t)[1]

    def velocity(self, points):
        return self.field(points)

    def acceleration(self, points):
        # R = (v.grad)v = Dv v
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rows = self.field._contract(points.T, VALUE_AND_JACOBIAN)
        return np.einsum("nij,nj->ni", _jacobian_rows(rows[JACOBIAN]), rows[VALUE].T)

    def velocity_jacobian(self, points):
        return self.field.jacobian(points)

    def acceleration_jacobian(self, points):
        # D[(v.grad)v] = (D^2 v)[v] + (Dv)(Dv)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rows = self.field._contract(points.T, slice(None))
        dv = _jacobian_rows(rows[JACOBIAN])
        d2v = rows[HESSIAN].reshape(2, 2, 2, -1).transpose(3, 0, 1, 2)
        return (np.einsum("nijk,nk->nij", d2v, rows[VALUE].T)
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

    def map(self, points, t, *, with_jacobian=False):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        image = points + t * self.velocity(points)
        return (image, self.map_jacobian(points, t)) if with_jacobian else image

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
        term = functools.reduce(np.convolve, (entries[a, b] for a, b in enumerate(perm)),
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


def boundary_data(family: PerturbationFamily, grid: PointSet) -> BoundaryData:
    s = family.velocity(grid.nodes)
    r = family.acceleration(grid.nodes)
    ds = family.velocity_jacobian(grid.nodes)
    rho = np.einsum("ni,ni->n", s, grid.normal)
    rho2 = np.einsum("ni,ni->n", r, grid.normal)
    s_tau = s - rho[:, None] * grid.normal
    return BoundaryData(s, r, ds, rho, rho2, s_tau)


def advective_normal_component(data: BoundaryData, grid: PointSet) -> np.ndarray:
    """Nodal [(S.grad)S].nu computed from the velocity Jacobian."""
    adv = np.einsum("nij,nj->ni", data.velocity_jacobian, data.velocity)
    return np.einsum("ni,ni->n", adv, grid.normal)
