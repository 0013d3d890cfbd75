"""Smooth planar boundary geometry on spectral grids.

Curves are closed trigonometric-polynomial maps theta in [0, 2pi) -> R^2,
so all derivatives are analytic and equispaced trapezoid quadrature is
spectrally accurate.  The module provides the one point-set path
(``pushed_frame``: the nodes, unit frame and trapezoid line element of
T_t(curve) at given angles, for base and deformed boundaries alike), boundary
grids (the undeformed point set with its curve and curvature), the frame's
exact t-rates at t = 0 (``frame_rates``), tangential differentiation,
constant-along-normal collar extensions, and a blended radial quadrature for
the enclosed region.

Conventions: the outer component runs counterclockwise and holes run
clockwise, so the unit normal nu = rot(tau) always points out of the
domain on the outer curve and into each hole.  Signed curvature is
positive on the boundary of a convex region, which makes div(nu) = kappa
for the tubular extension of the normal field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi


class GeometryError(ValueError):
    """Raised for degenerate curves, collars, or unsupported topology."""


# ---------------------------------------------------------------------------
# Fourier differentiation / interpolation on equispaced periodic samples
# ---------------------------------------------------------------------------

def fourier_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Differentiate equispaced periodic samples with respect to theta.

    Exact (to rounding) for trigonometric polynomials of degree < M/2.
    The Nyquist mode is zeroed for odd derivative orders, as usual for
    real even-length data.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[-1]
    coeff = np.fft.rfft(values)
    k = np.arange(coeff.shape[-1])
    coeff = coeff * (1j * k) ** order
    if order % 2 == 1 and m % 2 == 0:
        coeff[..., -1] = 0.0
    return np.fft.irfft(coeff, n=m)


def fourier_interpolate(values: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples.

    ``values`` are samples at theta_j = 2*pi*j/M.  Spectrally accurate for
    analytic periodic data; exact for band-limited data of degree < M/2.
    """
    return FourierBasis.at(np.shape(values)[-1], theta)(values)


@dataclass(frozen=True)
class FourierBasis:
    """``fourier_interpolate`` from M samples to fixed angles theta, with its
    cos(k theta) and sin(k theta) matrices (0 < k < M/2) built once.

    ``nyquist`` is cos((M/2) theta) for even M, else None.  A caller that
    interpolates many sample sets to the same angles keeps one basis; each
    call takes the same products as ``fourier_interpolate`` and keeps its bits.
    """

    m: int
    cos: np.ndarray
    sin: np.ndarray
    nyquist: np.ndarray | None

    @classmethod
    def at(cls, m: int, theta: np.ndarray) -> "FourierBasis":
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        kt = np.outer(theta, np.arange(1, (m + 1) // 2))
        return cls(m, np.cos(kt), np.sin(kt),
                   np.cos((m // 2) * theta) if m % 2 == 0 else None)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The interpolant of the M samples ``values`` at the basis angles."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.m:
            raise ValueError(f"{values.shape[-1]} samples for a basis of {self.m}")
        coeff = np.fft.rfft(values) / self.m
        n = self.cos.shape[1]
        out = np.full(len(self.cos), coeff[0].real)
        out += 2.0 * (self.cos @ coeff[1:n + 1].real - self.sin @ coeff[1:n + 1].imag)
        if self.nyquist is not None:
            out += coeff[-1].real * self.nyquist
        return out


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

# trapezoid nodes of the area and centroid integrals
AREA_THETAS = TWO_PI * np.arange(512) / 512


def _rotate_quarter(vec: np.ndarray) -> np.ndarray:
    """Map (a, b) -> (b, -a); sends the tangent of a ccw curve to the outward normal."""
    return np.stack([vec[..., 1], -vec[..., 0]], axis=-1)


def _cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass(frozen=True)
class FourierCurve:
    """Closed curve x(theta) = c0 + sum_k a_k cos(k theta) + b_k sin(k theta).

    ``cos_coeffs``/``sin_coeffs`` have shape (K+1, 2); row k holds the
    degree-k coefficient pair (the k=0 sine row is ignored).
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        cos_c = np.atleast_2d(np.asarray(self.cos_coeffs, dtype=float))
        sin_c = np.atleast_2d(np.asarray(self.sin_coeffs, dtype=float))
        if cos_c.shape != sin_c.shape or cos_c.shape[1] != 2:
            raise GeometryError("coefficient arrays must both have shape (K+1, 2)")
        object.__setattr__(self, "cos_coeffs", cos_c)
        object.__setattr__(self, "sin_coeffs", sin_c)

    def _eval(self, theta: np.ndarray, order: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        k = np.arange(self.cos_coeffs.shape[0])
        kt = np.multiply.outer(theta, k)
        # d^n/dtheta^n of cos(k t), sin(k t)
        phase = 0.5 * np.pi * order
        cos_part = np.cos(kt + phase) * k ** order
        sin_part = np.sin(kt + phase) * k ** order
        return cos_part @ self.cos_coeffs + sin_part @ self.sin_coeffs

    def point(self, theta):
        return self._eval(theta, 0)

    def velocity(self, theta):
        return self._eval(theta, 1)

    def acceleration(self, theta):
        return self._eval(theta, 2)

    def curvature(self, theta):
        """Signed curvature (x' x x'') / |x'|^3."""
        dx = self.velocity(theta)
        return _cross2(dx, self.acceleration(theta)) / np.hypot(dx[..., 0], dx[..., 1]) ** 3

    def reversed(self) -> "FourierCurve":
        """Same trace with opposite orientation (theta -> -theta)."""
        return FourierCurve(self.cos_coeffs, -self.sin_coeffs)

    def scaled_about(self, center: np.ndarray, factor: float) -> "FourierCurve":
        """Dilate the curve about ``center`` by ``factor`` (used for charge rings)."""
        cos_c = self.cos_coeffs * factor
        sin_c = self.sin_coeffs * factor
        cos_c[0] = center + factor * (self.cos_coeffs[0] - center)
        return FourierCurve(cos_c, sin_c)

    def signed_area(self) -> float:
        x, dx = self.point(AREA_THETAS), self.velocity(AREA_THETAS)
        return 0.5 * np.sum(_cross2(x, dx)) * TWO_PI / AREA_THETAS.size

    def centroid(self) -> np.ndarray:
        """Area centroid of the enclosed region (orientation independent)."""
        x, dx = self.point(AREA_THETAS), self.velocity(AREA_THETAS)
        mx = np.sum(_cross2(x, dx)[:, None] * x, axis=0) * TWO_PI / AREA_THETAS.size / 3.0
        return mx / self.signed_area()


def _center(center) -> np.ndarray:
    """``center``, two finite numbers other than booleans, as floats, or a
    GeometryError naming it."""
    try:
        point = np.asarray(center, dtype=float)
    except (TypeError, ValueError):
        point = np.full(1, np.nan)
    if (point.shape != (2,) or not np.all(np.isfinite(point))
            or any(isinstance(c, bool) for c in center)):
        raise GeometryError(f"center must be two finite numbers, not {center!r}")
    return point


def _number(name: str, value, holds=lambda v: 0.0 < v < np.inf,
            rule: str = "a finite positive number") -> float:
    """``value``, a number other than a boolean, as a float for which ``holds``
    is true (NaN never is), or a GeometryError naming ``name``, the ``rule``
    and the value."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    if isinstance(value, bool) or not holds(number):
        raise GeometryError(f"{name} must be {rule}, not {value!r}")
    return number


def circle(radius: float = 1.0, center=(0.0, 0.0)) -> FourierCurve:
    radius, center = _number("circle radius", radius), _center(center)
    cos_c = np.array([[center[0], center[1]], [radius, 0.0]])
    sin_c = np.array([[0.0, 0.0], [0.0, radius]])
    return FourierCurve(cos_c, sin_c)


def ellipse(a: float, b: float, center=(0.0, 0.0)) -> FourierCurve:
    a, b = _number("ellipse semi-axis a", a), _number("ellipse semi-axis b", b)
    center = _center(center)
    cos_c = np.array([[center[0], center[1]], [a, 0.0]])
    sin_c = np.array([[0.0, 0.0], [0.0, b]])
    return FourierCurve(cos_c, sin_c)


def star(r0: float = 1.0, eps: float = 0.2, k: int = 3) -> FourierCurve:
    """r(theta) = r0 (1 + eps cos(k theta)), a smooth star-shaped curve.

    The radial modulation folds into a finite trigonometric polynomial via
    product-to-sum identities, so derivatives remain exact.  |eps| < 1 keeps
    r(theta) > 0, and the frequency k is an integer >= 1 (an integral float
    such as 3.0 reads as 3).
    """
    r0 = _number("star r0", r0)
    eps = _number("star eps", eps, lambda v: abs(v) < 1.0, "a number with |eps| < 1")
    try:
        integral = not isinstance(k, bool) and int(k) == k and k >= 1
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise GeometryError(f"star frequency k must be an integer >= 1, not {k!r}")
    k = int(k)
    n = k + 1
    cos_c = np.zeros((n + 1, 2))
    sin_c = np.zeros((n + 1, 2))
    cos_c[1, 0] = r0
    sin_c[1, 1] = r0
    # r0*eps*cos(k t)*(cos t, sin t)
    cos_c[k + 1, 0] += 0.5 * r0 * eps
    cos_c[abs(k - 1), 0] += 0.5 * r0 * eps
    sin_c[k + 1, 1] += 0.5 * r0 * eps
    if k - 1 >= 1:
        sin_c[k - 1, 1] -= 0.5 * r0 * eps
    return FourierCurve(cos_c, sin_c)


@dataclass(frozen=True)
class BoundaryCurve:
    """Oriented multi-component boundary: one outer curve plus optional holes."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise GeometryError("boundary needs at least one component")
        outer = comps[0].signed_area()
        if outer <= 0:
            raise GeometryError("outer component must be counterclockwise")
        for i, comp in enumerate(comps[1:], start=1):
            if comp.signed_area() >= 0:
                raise GeometryError(f"hole component {i} must be clockwise")
        object.__setattr__(self, "components", comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    def area(self) -> float:
        return sum(c.signed_area() for c in self.components)


def disk(radius: float = 1.0, center=(0.0, 0.0)) -> BoundaryCurve:
    return BoundaryCurve((circle(radius, center),))


def elliptical_domain(a: float, b: float, center=(0.0, 0.0)) -> BoundaryCurve:
    return BoundaryCurve((ellipse(a, b, center),))


def star_domain(r0: float = 1.0, eps: float = 0.2, k: int = 3) -> BoundaryCurve:
    return BoundaryCurve((star(r0, eps, k),))


def annulus(r_inner: float, r_outer: float, center=(0.0, 0.0)) -> BoundaryCurve:
    if not 0 < r_inner < r_outer:
        raise GeometryError(f"annulus needs 0 < r_inner < r_outer, not r_inner={r_inner!r}, "
                            f"r_outer={r_outer!r}")
    return BoundaryCurve((circle(r_outer, center), circle(r_inner, center).reversed()))


# ---------------------------------------------------------------------------
# Boundary grids
# ---------------------------------------------------------------------------

MIN_SPEED = 1e-10


@dataclass(frozen=True)
class PointSet:
    """``pushed_frame``'s nodes of T_t(curve) at M angles, the unit tangent
    DT_t x'/|DT_t x'| and normal, the speed |DT_t x'| and the trapezoid
    weights (2 pi / M) speed: on equispaced angles sum(weights) is the
    arclength to spectral accuracy."""

    thetas: np.ndarray
    nodes: np.ndarray        # (M, 2)
    tangent: np.ndarray      # (M, 2), unit
    normal: np.ndarray       # (M, 2), unit, rot(tangent)
    speed: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def arclength(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


@dataclass(frozen=True)
class BoundaryGrid(PointSet):
    """The undeformed point set of a component at M equispaced angles, with
    its curve and signed curvature."""

    curve: FourierCurve
    curvature: np.ndarray


def pushed_frame(curve: FourierCurve, thetas: np.ndarray, family=None, t: float = 0.0):
    """The ``PointSet`` of T_t(curve) at ``thetas``.

    The one place a curve velocity becomes a frame and a line element.  The
    tangent is the pushforward DT_t x'(theta) of the curve's velocity, with
    T_t and DT_t from ``family.map(..., with_jacobian=True)``; ``family=None`` is the
    identity, so the undeformed curve takes the same path.  Rejects a speed
    that collapses at any node.
    """
    nodes = curve.point(thetas)
    dx = curve.velocity(thetas)
    if family is not None:
        nodes, jac = family.map(nodes, t, with_jacobian=True)
        dx = np.einsum("nij,nj->ni", jac, dx)
    speed = np.hypot(dx[:, 0], dx[:, 1])
    bad = np.flatnonzero(speed < MIN_SPEED)
    if bad.size:
        raise GeometryError(f"degenerate boundary: |DT_t x'| ~ 0 at node {bad[0]}")
    tangent = dx / speed[:, None]
    # no angles (a collar's points with no foot) give no weights
    return PointSet(thetas, nodes, tangent, _rotate_quarter(tangent), speed,
                    (TWO_PI / max(len(speed), 1)) * speed)


def frame_rates(curve: FourierCurve, thetas: np.ndarray, family):
    """The unit normal of T_t(curve) at ``thetas`` and its first two
    t-derivatives at t = 0, each complex (nu1 + i nu2).

    ``pushed_frame``'s rule in complex form: v(t) = DT_t x'(theta) turns at
    the rate phi' = Im(v'/v) and phi'' = Im(v''/v - (v'/v)^2), with v' = DS x'
    and v'' = DR x' (``family.velocity_jacobian``/``acceleration_jacobian``),
    so nu = -i v/|v| gives nu' = i phi' nu and nu'' = (i phi'' - phi'^2) nu.
    """
    nodes, dx = curve.point(thetas), curve.velocity(thetas)
    v, dv, ddv = (vector @ (1.0, 1j) for vector in (
        dx, *(np.einsum("nij,nj->ni", jac(nodes), dx)
              for jac in (family.velocity_jacobian, family.acceleration_jacobian))))
    turn = dv / v
    rate, acceleration = turn.imag, (ddv / v - turn * turn).imag
    nu = -1j * v / np.abs(v)
    return nu, 1j * rate * nu, (1j * acceleration - rate * rate) * nu


def build_grid(curve: FourierCurve, m: int) -> BoundaryGrid:
    """Sample one curve component at M equispaced parameters.

    M must be a power of two with M >= 16.  The point set comes from
    ``pushed_frame`` with no deformation.
    """
    if m < 16 or (m & (m - 1)) != 0:
        raise GeometryError("node count must be a power of two >= 16")
    thetas = TWO_PI * np.arange(m) / m
    return BoundaryGrid(**vars(pushed_frame(curve, thetas)), curve=curve,
                        curvature=curve.curvature(thetas))


def tangential_grad(grid: PointSet, values: np.ndarray) -> np.ndarray:
    """Arclength derivative df/ds of nodal values on an equispaced point set."""
    return fourier_derivative(values) / grid.speed


def second_fundamental_form(grid: BoundaryGrid, xi, eta) -> np.ndarray:
    """Curvature-weighted tangential bilinear form kappa (xi.tau)(eta.tau) at
    every node, for nodal (M, 2) fields xi and eta.  The normal direction is
    in the kernel; on the unit circle a pair of unit tangents gives +1."""
    # 1x2 @ 2x1 per node rounds as the node's np.dot does, einsum may not
    tau = grid.tangent[:, :, None]
    return grid.curvature * (xi[:, None, :] @ tau)[:, 0, 0] * (eta[:, None, :] @ tau)[:, 0, 0]


# ---------------------------------------------------------------------------
# Collar extension (tubular coordinates)
# ---------------------------------------------------------------------------

class CollarFrame(NamedTuple):
    """Tubular coordinates of query points and the boundary frame at their feet."""

    theta: np.ndarray      # parameter of the foot
    offset: np.ndarray     # signed distance along the normal
    tangent: np.ndarray
    normal: np.ndarray
    speed: np.ndarray      # |x'(theta)|
    curvature: np.ndarray


@dataclass
class CollarExtension:
    """Constant-along-normal extension of nodal boundary data.

    Points p = x(theta) + n*nu(theta) with |n| <= half_width are mapped back
    to theta by Newton's method on the nearest-point condition; the extended
    scalar reproduces the trigonometric interpolant of the nodal values.
    The normal/curvature fields follow the closed tubular formulas, e.g.
    div(nu~) = kappa / (1 + n*kappa).
    """

    grid: BoundaryGrid
    values: np.ndarray
    half_width: float

    def __post_init__(self):
        kmax = float(np.max(np.abs(self.grid.curvature)))
        if self.half_width * kmax >= 0.5:
            raise GeometryError(
                f"collar half-width {self.half_width} too wide for max curvature {kmax}")

    # -- projection -------------------------------------------------------
    def locate(self, points: np.ndarray):
        """(inside, frame): which points lie in the collar, and the frame of those.

        One scan finds each point's nearest node.  Only points within one
        node spacing of the collar are projected: Newton's method on
        (p - x(theta)).x'(theta) = 0 starts at the nearest node, and the
        feet's frame comes from ``pushed_frame`` and ``curvature``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        curve = self.grid.curve
        d2 = ((points[:, None, :] - self.grid.nodes[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        reach = self.half_width + np.max(self.grid.weights)
        near = np.flatnonzero(d2[np.arange(len(points)), nearest] < reach ** 2)
        points = points[near]
        theta = self.grid.thetas[nearest[near]]
        for _ in range(40):
            x = curve.point(theta)
            dx = curve.velocity(theta)
            ddx = curve.acceleration(theta)
            diff = points - x
            f = np.einsum("ij,ij->i", diff, dx)
            fp = np.einsum("ij,ij->i", diff, ddx) - np.einsum("ij,ij->i", dx, dx)
            step = f / fp
            theta -= step
            if np.max(np.abs(step), initial=0.0) < 1e-14:
                break
        feet = pushed_frame(curve, theta)
        offset = np.einsum("ij,ij->i", points - feet.nodes, feet.normal)
        keep = np.abs(offset) <= self.half_width * (1 + 1e-9)
        inside = np.zeros(len(d2), dtype=bool)
        inside[near[keep]] = True
        feet = CollarFrame(theta, offset, feet.tangent, feet.normal, feet.speed,
                           curve.curvature(theta))
        return inside, CollarFrame(*(a[keep] for a in feet))

    def frame(self, points: np.ndarray) -> CollarFrame:
        """The frame at the feet of query points that must all lie in the collar."""
        inside, feet = self.locate(points)
        if not inside.all():
            raise GeometryError("query point outside the collar")
        return feet

    # -- evaluators -------------------------------------------------------
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return fourier_interpolate(self.values, self.frame(points).theta)

    def extended_normal(self, points: np.ndarray) -> np.ndarray:
        return self.frame(points).normal

    def normal_divergence(self, points: np.ndarray) -> np.ndarray:
        """div of the extended unit normal: kappa/(1 + n*kappa) in tubular coordinates."""
        feet = self.frame(points)
        return feet.curvature / (1.0 + feet.offset * feet.curvature)


def collar_extend(grid: BoundaryGrid, values: np.ndarray) -> CollarExtension:
    """Build the constant-along-normal collar extension of nodal data, of
    half-width 0.4 / max |kappa|."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise GeometryError("nodal data must match the grid size")
    kmax = max(float(np.max(np.abs(grid.curvature))), 1e-12)
    return CollarExtension(grid, values, 0.4 / kmax)


# ---------------------------------------------------------------------------
# Interior quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteriorQuadrature:
    """Nodes/weights over the enclosed region."""

    nodes: np.ndarray    # (K, 2)
    weights: np.ndarray  # (K,)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    @property
    def size(self) -> int:
        return self.nodes.shape[0]


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1]: the eigenvalues of the
    Jacobi matrix, one Newton step on P_n, and weights 2 / ((1 - x^2) P_n'^2),
    symmetrized about 0.  For n <= 64 its nodes and weights are within
    3.4e-16 of the exact ones (40-digit Newton), where numpy's ``leggauss``
    weights are within 5e-15."""
    def legendre(x):
        """P_n(x) and P_n'(x) by the three-term recurrence."""
        prev, p = np.ones_like(x), x
        for k in range(1, n):
            prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
        return p, n * (x * p - prev) / (x * x - 1.0)

    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    p, dp = legendre(x)
    x -= p / dp
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


def _blended_rule(curve: BoundaryCurve, m: int):
    gl_x, gl_w = _gauss_legendre(m // 4)
    rho = 0.5 * (gl_x + 1.0)
    rho_w = 0.5 * gl_w
    theta = TWO_PI * np.arange(m) / m
    theta_w = TWO_PI / m

    outer = curve.components[0]
    xo = outer.point(theta)
    dxo = outer.velocity(theta)
    if curve.n_components == 1:
        center = outer.centroid()
        inner_pts = np.broadcast_to(center, xo.shape)
        inner_vel = np.zeros_like(dxo)
    else:
        inner = curve.components[1].reversed()  # counterclockwise copy for blending
        inner_pts = inner.point(theta)
        inner_vel = inner.velocity(theta)

    # q(rho, theta) = (1-rho)*inner + rho*outer
    pts = (1 - rho)[:, None, None] * inner_pts[None] + rho[:, None, None] * xo[None]
    d_rho = xo - inner_pts
    d_theta = (1 - rho)[:, None, None] * inner_vel[None] + rho[:, None, None] * dxo[None]
    jac = d_rho[None, :, 0] * d_theta[:, :, 1] - d_rho[None, :, 1] * d_theta[:, :, 0]
    if np.min(jac) <= 0:
        raise GeometryError("blended map is not injective; region is not star-like enough")
    w = rho_w[:, None] * theta_w * jac
    return pts.reshape(-1, 2), w.reshape(-1)


def interior_quadrature(curve: BoundaryCurve, m: int) -> InteriorQuadrature:
    """Quadrature over the region enclosed by ``curve``: the boundary grid's
    ``m`` angles 2 pi j / m (trapezoid) times m // 4 Gauss-Legendre radii.

    Supports a single star-like component or one outer curve with one hole
    (radial blending between the two).  More holes are rejected.
    """
    if curve.n_components > 2:
        raise GeometryError("interior quadrature supports at most one hole")
    nodes, weights = _blended_rule(curve, m)
    return InteriorQuadrature(nodes, weights)


# ---------------------------------------------------------------------------
# Mixed boundary assignment and domain bundle
# ---------------------------------------------------------------------------

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class MixedBoundary:
    """Whole-component assignment of each boundary piece to Dirichlet or Neumann."""

    kinds: tuple

    def __post_init__(self):
        kinds = tuple(self.kinds)
        if not kinds:
            raise GeometryError("empty boundary assignment")
        for k in kinds:
            if k not in (DIRICHLET, NEUMANN):
                raise GeometryError(f"unknown boundary kind {k!r}")
        if DIRICHLET not in kinds:
            raise GeometryError(
                "at least one Dirichlet component is required: a point source forces "
                "total boundary flux -1, which an all-Neumann boundary cannot absorb")
        object.__setattr__(self, "kinds", kinds)

    def is_dirichlet(self, i: int) -> bool:
        return self.kinds[i] == DIRICHLET


def all_dirichlet(n_components: int) -> MixedBoundary:
    return MixedBoundary((DIRICHLET,) * n_components)


class Domain:
    """A boundary curve with grids on every component, and one memo of what is
    built from them once: the interior rule, the charge rings and the base
    Green's solvers (``greens.base_solver``)."""

    def __init__(self, curve: BoundaryCurve, m: int = 128):
        self.curve = curve
        self.grids = tuple(build_grid(c, m) for c in curve.components)
        self._memo: dict = {}

    @property
    def n_components(self) -> int:
        return self.curve.n_components

    def memo(self, key, build):
        """``build()``, called on the first request for the hashable ``key`` only."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def interior(self) -> InteriorQuadrature:
        """The interior rule on the grid's M angles (M // 4 x M nodes), built once."""
        return self.memo("interior", lambda: interior_quadrature(self.curve, self.grids[0].size))

    def charge_rings(self, n_charges: int) -> tuple:
        """Read-only (n_charges, 2) source rings of each component, built once per count.

        Ring i is component i dilated about its area centroid, by
        R = min(1.6, 10 ** (20 / n_charges)) for the outer curve and by 1 / R
        for a hole, sampled at the angles 2 pi (j + 1/4) / n_charges.  Up to
        97 charges R is 1.6; from 98 on R ** n_charges = 1e20, so the
        disk's smallest pivoted-QR ratio, about R ** (-n_charges / 2), stays
        near 1e-10, above the Green's solver's 1e-12 cut.  Under this rule
        the solver keeps every column of the disk, the annulus and the
        eps = 0.2 star from 16 to 256 charges.  A ring further out fits
        worse where the count is low: at 64 charges a 1.78 ring fails check
        gates that the 1.6 ring passes.
        """
        def build():
            thetas = TWO_PI * (np.arange(n_charges) + 0.25) / n_charges
            outer = min(1.6, 10.0 ** (20.0 / n_charges))
            rings = []
            for i, curve in enumerate(self.curve.components):
                factor = outer if i == 0 else 1.0 / outer
                ring = curve.scaled_about(curve.centroid(), factor).point(thetas)
                ring.flags.writeable = False
                rings.append(ring)
            return tuple(rings)

        return self.memo(("charge_rings", n_charges), build)
