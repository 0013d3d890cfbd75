"""Mixed Dirichlet/Neumann Laplace Green's function on smooth plane domains.

The harmonic corrector is represented by the method of fundamental
solutions: a sum of log-kernels with sources on dilated copies of each
boundary component (outside the domain for the outer curve, inside each
hole).  Coefficients are fit by least squares on oversampled collocation
nodes with column-pivoted QR and relative truncation, the standard
stabilization for these exponentially ill-conditioned systems.  The
collocation matrix is assembled once per boundary and shared by every
right-hand side (poles and variation data alike).  Its condition estimate
is an SVD, computed only when read.

Blocks are the unit of work: one gelsy call per batch; per-column products
keep bits.  A solve takes one data set or a block of k of them (several
poles, several variation data sets) and fits them in one
``lstsq(..., lapack_driver="gelsy")`` call, which factors the matrix once
for the batch; gelsy's rank depends only on the matrix, so every column
gets the same truncation.  The result is a field with a (K, k) coefficient
block.  A block field builds each (N, K) kernel matrix once per call and
takes one matrix-vector product per column, so column j of any block
evaluation is bit-identical to evaluating field j alone (one gemm would
reorder the sums).  Block results stack the k columns on a leading axis.

The kernels work on (N, K) arrays of point-source offsets.  Sums of kernel
gradients over the charges use the complex form
grad Gamma(p - s) = -conj(1 / (z - s)) / (2 pi) with z = p1 + i p2, which
turns the sum into one complex matrix-vector product per field.

The deformed boundary of T_t(Omega) takes the base boundary's path: its
nodes, frames and charge rings are the T_t images of the base point sets,
so re-solves along a finite-difference t-ladder differ only through the
deformation, never through a change of discretization at t=0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .geometry import TWO_PI, Domain, MixedBoundary, fourier_interpolate, pushed_frame

INV_2PI = 1.0 / (2.0 * np.pi)
# angles of the off-grid check nodes of each component
CHECK_THETAS = TWO_PI * (np.arange(64) + 0.5) / 64


class GreensError(ValueError):
    """Invalid pole, boundary assignment, or topology."""


class GreensAccuracyError(RuntimeError):
    """Check-node residual exceeded the configured hard threshold."""


@dataclass(frozen=True)
class GreensConfig:
    n_charges: int = 128
    charge_offset_outer: float = 1.6
    fail_threshold: float = 1e-4


# ---------------------------------------------------------------------------
# Log kernel
# ---------------------------------------------------------------------------

def _kernel_offsets(points: np.ndarray, sources: np.ndarray):
    """dx, dy and r2 = dx**2 + dy**2 from every source to every point, each (N, K)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    dx = np.subtract.outer(points[:, 0], sources[:, 0])
    dy = np.subtract.outer(points[:, 1], sources[:, 1])
    r2 = dx * dx
    r2 += dy * dy
    if np.any(r2 == 0.0):
        raise GreensError("evaluation point coincides with a source")
    return dx, dy, r2


def fundamental_solution(points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Gamma(p - s) = -log|p - s| / (2 pi), shape (N, K)."""
    _, _, r2 = _kernel_offsets(points, sources)
    np.log(r2, out=r2)
    r2 *= -0.5 * INV_2PI
    return r2


def _gradient_components(points: np.ndarray, sources: np.ndarray):
    """The two (N, K) components of grad_p Gamma(p - s)."""
    dx, dy, r2 = _kernel_offsets(points, sources)
    dx *= -INV_2PI
    dx /= r2
    dy *= -INV_2PI
    dy /= r2
    return dx, dy


def fundamental_gradient(points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """grad_p Gamma(p - s), shape (N, K, 2)."""
    return np.stack(_gradient_components(points, sources), axis=-1)


def fundamental_hessian(points: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Second p-derivatives of Gamma(p - s), shape (N, K, 2, 2)."""
    dx, dy, r2 = _kernel_offsets(points, sources)
    diff = np.stack([dx, dy], axis=-1)
    outer = np.einsum("nki,nkj->nkij", diff, diff)
    return INV_2PI * (2.0 * outer / r2[..., None, None] ** 2
                      - np.eye(2) / r2[..., None, None])


def _per_column(kernel: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """kernel @ c for one coefficient vector, or one product per block column.

    Column j of the (k, N) block result keeps the bits of ``kernel @ c_j``.
    """
    if coefficients.ndim == 1:
        return kernel @ coefficients
    return np.stack([kernel @ np.ascontiguousarray(c) for c in coefficients.T])


def _per_pole(kernel, points: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kernel(points, poles) with the pole axis in front; without it for one pole (2,)."""
    out = np.moveaxis(kernel(points, np.atleast_2d(y)), 1, 0)
    return out if y.ndim == 2 else out[0]


def rowwise_dot(vectors: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Nodewise v . d of (N, 2) vectors, or of each (N, 2) slab of a (k, N, 2) block."""
    if vectors.ndim == 2:
        return np.einsum("ni,ni->n", vectors, directions)
    return np.stack([np.einsum("ni,ni->n", np.ascontiguousarray(v), directions)
                     for v in vectors])


# ---------------------------------------------------------------------------
# Discretization of the base or deformed boundary
# ---------------------------------------------------------------------------

@dataclass
class ComponentDiscretization:
    """All per-component point sets the collocation solver needs."""

    dirichlet: bool
    nodes: np.ndarray       # grid nodes (M, 2)
    tangent: np.ndarray
    normal: np.ndarray
    weights: np.ndarray
    colloc_nodes: np.ndarray
    colloc_normal: np.ndarray
    colloc_thetas: np.ndarray
    check_nodes: np.ndarray
    check_normal: np.ndarray
    charges: np.ndarray


def _winding_number(nodes: np.ndarray, point: np.ndarray) -> float:
    diff = nodes - point[None, :]
    ang = np.arctan2(diff[:, 1], diff[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % TWO_PI - np.pi
    return float(np.sum(dang) / TWO_PI)


def discretize_pushed(domain: Domain, mixed: MixedBoundary, family, t: float,
                      config: GreensConfig) -> list[ComponentDiscretization]:
    """Discretize the boundary of T_t(Omega) for collocation.

    One path for every t: each point set (grid, collocation and check
    nodes, charge rings) is the T_t image of its base-boundary set, with
    frames from the deformation Jacobian, and ``family=None`` is the
    identity.  The base charge rings are dilations of each component about
    its area centroid.  The discretization is therefore continuous in t,
    and a family that does not move a point set leaves it bit-identical.
    """
    if len(mixed.kinds) != domain.n_components:
        raise GreensError("boundary assignment does not match component count")
    n_col = int(round(2.0 * config.n_charges))  # two collocation nodes per charge
    th_col = TWO_PI * np.arange(n_col) / n_col
    th_chg = TWO_PI * (np.arange(config.n_charges) + 0.25) / config.n_charges
    comps = []
    for i, (curve, grid) in enumerate(zip(domain.curve.components, domain.grids)):
        nodes, tangent, normal, speed = pushed_frame(curve, grid.thetas, family, t)
        col_n, _, col_nu, _ = pushed_frame(curve, th_col, family, t)
        chk_n, _, chk_nu, _ = pushed_frame(curve, CHECK_THETAS, family, t)
        factor = config.charge_offset_outer if i == 0 else 0.6  # holes: shrunk ring
        charges = curve.scaled_about(curve.centroid(), factor).point(th_chg)
        if family is not None:
            charges = family.map(charges, t)
        comps.append(ComponentDiscretization(
            dirichlet=mixed.is_dirichlet(i), nodes=nodes, tangent=tangent,
            normal=normal, weights=(TWO_PI / grid.size) * speed,
            colloc_nodes=col_n, colloc_normal=col_nu,
            colloc_thetas=th_col, check_nodes=chk_n, check_normal=chk_nu,
            charges=charges))
    return comps


# ---------------------------------------------------------------------------
# Harmonic fields and the shared-factorization solver
# ---------------------------------------------------------------------------

@dataclass
class HarmonicField:
    """Sum of log-kernels over exterior charges: smooth and harmonic inside.

    ``coefficients`` is (K,) for one field or (K, k) for a block of k fields
    on the same charges; a block's evaluations are (k, ...) stacks.
    """

    charges: np.ndarray
    coefficients: np.ndarray

    def __getitem__(self, j) -> "HarmonicField":
        """Field j of a block, or the sub-block a slice selects."""
        return HarmonicField(self.charges, self.coefficients[:, j])

    def value(self, points: np.ndarray) -> np.ndarray:
        return _per_column(fundamental_solution(points, self.charges), self.coefficients)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        # grad Gamma(p - s) = -conj(1/(z - s)) / (2 pi) with z = p1 + i p2,
        # so the sum over charges is one complex matrix-vector product.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.subtract.outer(points[:, 0] + 1j * points[:, 1],
                              self.charges[:, 0] + 1j * self.charges[:, 1])
        if np.any(w == 0.0):
            raise GreensError("evaluation point coincides with a source")
        np.reciprocal(w, out=w)
        total = _per_column(w, self.coefficients)
        return np.stack([-INV_2PI * total.real, INV_2PI * total.imag], axis=-1)

    def hessian(self, points: np.ndarray) -> np.ndarray:
        kernel = fundamental_hessian(points, self.charges)
        if self.coefficients.ndim == 1:
            return np.einsum("nkij,k->nij", kernel, self.coefficients)
        return np.stack([np.einsum("nkij,k->nij", kernel, c) for c in self.coefficients.T])


@dataclass
class SolveDiagnostics:
    residual: float
    per_component: tuple
    rank: int
    n_unknowns: int


class MixedSolver:
    """Shared collocation matrix for one (possibly deformed) boundary.

    Dirichlet rows match values, Neumann rows match normal derivatives.  The
    matrix is assembled once and shared by every right-hand side: one gelsy
    call per batch; per-column products keep bits.  Each ``solve`` is one
    pivoted-QR least-squares solve (LAPACK gelsy) of a data set or a block
    of them, truncated at the relative threshold 1e-13.  The condition
    estimate is an SVD of the matrix, computed on first read.
    """

    def __init__(self, components: list[ComponentDiscretization],
                 config: GreensConfig | None = None):
        self.config = config or GreensConfig()
        self.components = components
        if not any(c.dirichlet for c in components):
            raise GreensError("pure-Neumann boundary rejected: the unit point "
                              "source needs a Dirichlet component to absorb flux")
        self.charges = np.vstack([c.charges for c in components])
        rows = []
        for comp in components:
            if comp.dirichlet:
                rows.append(fundamental_solution(comp.colloc_nodes, self.charges))
            else:
                gx, gy = _gradient_components(comp.colloc_nodes, self.charges)
                gx *= comp.colloc_normal[:, :1]
                gy *= comp.colloc_normal[:, 1:]
                gx += gy
                rows.append(gx)
        self.matrix = np.vstack(rows)

    @functools.cached_property
    def condition_estimate(self) -> float:
        sv = scipy.linalg.svdvals(self.matrix)
        return float(sv[0] / max(sv[-1], 1e-300))

    def solve(self, rhs_per_component: list[np.ndarray], check_data=None):
        """Fit one data set, or a block of k, in one gelsy call.

        Each component's data is (rows_i,) for one set or (k, rows_i) for k
        sets; together they form the (rows, k) right-hand-side block.  The
        field has a (K, k) coefficient block and the diagnostics are one
        ``SolveDiagnostics`` per column (a tuple), or the plain field and
        diagnostics for one set.  On matrices of 192 or more columns the
        block's columns have matched single solves bit for bit; on smaller
        ones they agree to rounding.
        """
        rhs = np.concatenate(rhs_per_component, axis=-1)
        coeff, _, rank, _ = scipy.linalg.lstsq(
            self.matrix, rhs.T, cond=1e-13, lapack_driver="gelsy")
        fld = HarmonicField(self.charges, coeff)
        residuals = []
        if check_data is not None:
            for comp, data in zip(self.components, check_data):
                if comp.dirichlet:
                    pred = fld.value(comp.check_nodes)
                else:
                    pred = rowwise_dot(fld.gradient(comp.check_nodes), comp.check_normal)
                residuals.append(np.max(np.abs(pred - data), axis=-1))
        # one row of per-component residuals per data set
        n_sets = 1 if rhs.ndim == 1 else rhs.shape[0]
        per_set = np.reshape(np.transpose(residuals), (n_sets, len(residuals)))
        diags = tuple(SolveDiagnostics(float(row.max()) if row.size else float("nan"),
                                       tuple(map(float, row)), int(rank),
                                       self.matrix.shape[1]) for row in per_set)
        total = max(d.residual for d in diags)
        if residuals and total > self.config.fail_threshold:
            raise GreensAccuracyError(
                f"check-node residual {total:.3e} exceeds "
                f"{self.config.fail_threshold:.1e} "
                f"(condition estimate {self.condition_estimate:.2e})")
        return fld, diags[0] if rhs.ndim == 1 else diags

    def solve_nodal(self, nodal_per_component: list[np.ndarray]):
        """Fit grid-nodal data, (M,) or (k, M) per component, Fourier-interpolated
        to the collocation and check nodes."""
        def interpolate(nodal, theta):
            if np.ndim(nodal) == 1:
                return fourier_interpolate(nodal, theta)
            return np.stack([fourier_interpolate(row, theta) for row in nodal])

        col = [interpolate(nodal, comp.colloc_thetas)
               for comp, nodal in zip(self.components, nodal_per_component)]
        chk = [interpolate(nodal, CHECK_THETAS) for nodal in nodal_per_component]
        return self.solve(col, check_data=chk)


# ---------------------------------------------------------------------------
# Green's function evaluations
# ---------------------------------------------------------------------------

@dataclass
class GreensEval:
    """N(., y) = Gamma(. - y) + corrector, with nodal boundary traces.

    One pole y (2,), or a block of poles (k, 2) from one solve: then the
    corrector is a k-column block, ``diagnostics`` a tuple, and every
    evaluation a (k, ...) stack.  Nodal traces are cached, read-only.
    """

    pole: np.ndarray
    corrector: HarmonicField
    components: list[ComponentDiscretization]
    diagnostics: SolveDiagnostics | tuple
    _traces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getitem__(self, j) -> "GreensEval":
        """Pole j of a block, or the sub-block a slice selects; traces carry over."""
        sub = GreensEval(self.pole[j], self.corrector[j], self.components,
                         self.diagnostics[j])
        sub._traces = {key: trace[j] for key, trace in self._traces.items()}
        return sub

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _per_pole(fundamental_solution, pts, self.pole) + self.corrector.value(pts)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _per_pole(fundamental_gradient, pts, self.pole) + self.corrector.gradient(pts)

    def hessian(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _per_pole(fundamental_hessian, pts, self.pole) + self.corrector.hessian(pts)

    def corrector_value(self, points: np.ndarray) -> np.ndarray:
        return self.corrector.value(points)

    # nodal traces on component i
    def _trace(self, i: int, frame: str) -> np.ndarray:
        key = (frame, i)
        if key not in self._traces:
            comp = self.components[i]
            trace = rowwise_dot(self.gradient(comp.nodes), getattr(comp, frame))
            trace.flags.writeable = False
            self._traces[key] = trace
        return self._traces[key]

    def normal_trace(self, i: int) -> np.ndarray:
        return self._trace(i, "normal")

    def tangential_trace(self, i: int) -> np.ndarray:
        return self._trace(i, "tangent")

    def boundary_values(self, i: int) -> np.ndarray:
        return self.value(self.components[i].nodes)


def contains(components: list[ComponentDiscretization], point: np.ndarray) -> bool:
    w = sum(_winding_number(c.nodes, np.asarray(point, float)) for c in components)
    return abs(w - 1.0) < 0.5


class GreensSolver:
    """Green's-function factory for one domain and boundary assignment."""

    def __init__(self, domain: Domain, mixed: MixedBoundary,
                 config: GreensConfig | None = None, family=None, t: float = 0.0):
        self.domain = domain
        self.mixed = mixed
        self.config = config or GreensConfig()
        self.components = discretize_pushed(domain, mixed, family, t, self.config)
        self.solver = MixedSolver(self.components, self.config)

    def corrector_data(self, y: np.ndarray):
        """Corrector data at collocation and check nodes for a pole or (k, 2) poles."""
        col, chk = [], []
        for comp in self.components:
            if comp.dirichlet:
                col.append(-_per_pole(fundamental_solution, comp.colloc_nodes, y))
                chk.append(-_per_pole(fundamental_solution, comp.check_nodes, y))
            else:
                gc = _per_pole(fundamental_gradient, comp.colloc_nodes, y)
                gk = _per_pole(fundamental_gradient, comp.check_nodes, y)
                col.append(-rowwise_dot(gc, comp.colloc_normal))
                chk.append(-rowwise_dot(gk, comp.check_normal))
        return col, chk

    def solve(self, y) -> GreensEval:
        """N(., y) for one pole (2,), or a block for poles (k, 2) in one gelsy call."""
        y = np.asarray(y, dtype=float)
        for pole in np.atleast_2d(y):
            if not contains(self.components, pole):
                raise GreensError(f"pole {pole} is not interior to the domain")
        col, chk = self.corrector_data(y)
        fld, diag = self.solver.solve(col, check_data=chk)
        return GreensEval(y, fld, self.components, diag)

    def harmonic_bvp(self, nodal_data: list[np.ndarray]):
        """Solve the mixed BVP with grid-nodal Dirichlet/Neumann data.

        Per component one data set (M,) or k of them (k, M), in one gelsy call.
        """
        return self.solver.solve_nodal(nodal_data)


def perturbed_greens(domain: Domain, mixed: MixedBoundary, family, t: float, y,
                     config: GreensConfig | None = None) -> GreensEval:
    """Green's function of the deformed domain T_t(Omega); used by FD oracles."""
    return GreensSolver(domain, mixed, config, family=family, t=t).solve(y)


# ---------------------------------------------------------------------------
# Analytic disk oracle and representation check
# ---------------------------------------------------------------------------

def disk_greens(x: np.ndarray, y: np.ndarray) -> float:
    """Dirichlet Green's function of the unit disk (image-charge form)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    ay = np.hypot(y[0], y[1])
    if ay == 0.0:
        return float(-INV_2PI * np.log(np.hypot(*x)))
    y_star = y / ay ** 2
    return float(-INV_2PI * (np.log(np.linalg.norm(x - y))
                             - np.log(ay * np.linalg.norm(x - y_star))))


def disk_poisson_kernel(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-dN/dnu on the unit circle: the classical Poisson kernel."""
    b = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    d2 = np.sum((b - np.asarray(y, float)[None, :]) ** 2, axis=-1)
    return INV_2PI * (1.0 - float(np.dot(y, y))) / d2


@dataclass
class RepresentationReport:
    probes: np.ndarray
    reconstructed: np.ndarray
    exact: np.ndarray
    max_error: float


def _log_moment_boundary(components, y: np.ndarray) -> float:
    """Exact ``integral of Gamma(x - y) over the domain`` as a boundary integral.

    V(x) = (-log r/(4 pi) + 1/(8 pi)) (x - y) has divergence Gamma(x - y),
    so the volume moment equals the flux of V through the boundary, which is
    smooth for interior y and integrates spectrally.
    """
    total = 0.0
    for comp in components:
        diff = comp.nodes - y[None, :]
        r = np.hypot(diff[:, 0], diff[:, 1])
        v = (-np.log(r) * INV_2PI / 2.0 + INV_2PI / 4.0)[:, None] * diff
        total += float(np.dot(comp.weights, np.einsum("ni,ni->n", v, comp.normal)))
    return total


def representation_check(domain: Domain, mixed: MixedBoundary, z_spec, probes,
                         config: GreensConfig | None = None):
    """Reconstruct a manufactured solution from its Green's-function representation.

    Given z with -Laplacian z = f, Dirichlet values on gamma^0, and flux on
    gamma^1, the solver's N must recover z(y) = (N(.,y), f)
    - <z, dN/dnu>_{gamma0} + <N(.,y), dz/dnu>_{gamma1} at every probe.

    The volume pairing is evaluated with singularity subtraction: the
    corrector part is smooth, the log kernel against f(y) reduces exactly to
    a boundary integral, and the remaining integrand vanishes at the pole.

    ``z_spec`` is one manufactured solution, or a list of them (then a list
    of reports comes back).  The probes are solved in one gelsy call, and
    their correctors and traces are evaluated once for every solution.
    """
    specs = list(z_spec) if isinstance(z_spec, (list, tuple)) else [z_spec]
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    solver = GreensSolver(domain, mixed, config)
    interior = domain.interior()
    ev = solver.solve(probes)
    corrector = ev.corrector_value(interior.nodes)
    gamma = fundamental_solution(interior.nodes, probes).T
    moments = [_log_moment_boundary(solver.components, y) for y in probes]
    traces = [ev.normal_trace(i) if comp.dirichlet else ev.value(comp.nodes)
              for i, comp in enumerate(solver.components)]
    reports = []
    for spec in specs:
        hess = spec.hessian(interior.nodes, 0.0)
        f = -(hess[:, 0, 0] + hess[:, 1, 1])
        data = [spec.value(comp.nodes, 0.0) if comp.dirichlet
                else np.einsum("ni,ni->n", spec.gradient(comp.nodes, 0.0), comp.normal)
                for comp in solver.components]
        exact, recon = [], []
        for j, y in enumerate(probes):
            fy = float(-np.trace(spec.hessian(y[None, :], 0.0)[0]))
            total = float(np.dot(interior.weights,
                                 corrector[j] * f + gamma[j] * (f - fy)))
            total += fy * moments[j]
            for comp, trace, phi in zip(solver.components, traces, data):
                if comp.dirichlet:
                    total -= float(np.dot(comp.weights, phi * trace[j]))
                else:
                    total += float(np.dot(comp.weights, trace[j] * phi))
            recon.append(total)
            exact.append(float(spec.value(y[None, :], 0.0)[0]))
        recon = np.asarray(recon)
        exact = np.asarray(exact)
        reports.append(RepresentationReport(probes, recon, exact,
                                            float(np.max(np.abs(recon - exact)))))
    return reports if isinstance(z_spec, (list, tuple)) else reports[0]
