"""Mixed Dirichlet/Neumann Laplace Green's function on smooth plane domains.

The harmonic corrector is represented by the method of fundamental
solutions: a sum of log-kernels with sources on dilated copies of each
boundary component (``Domain.charge_rings``: the outer curve dilated about
its centroid by R = min(1.6, 10^(20/n_charges)), each hole by 1/R).  Coefficients are
fit by least squares on oversampled collocation nodes.  The collocation
matrix is assembled once per boundary and shared by every right-hand side.
Its condition estimate is an SVD, computed only when read.

One QR path for every solve.  Every solver factors its matrix once, in
place, by unpivoted blocked QR (dgeqrt, then dgemqrt and dtrsm): a base
boundary's solver when it is built, any other at its first solve or fit.
The base's solver then decides its columns once: column-pivoted QR
(dgeqp3) of the n x n triangle R, whose pivots are the matrix's
(A^T A = R^T R), keeps the columns with |R_kk| > KEEP_CUT |R_11| (1e-12),
in ring order, with their charges; when one goes, the kept columns are
assembled again, bit for bit, and factored in place.  Under the ring rule
the disk and the annulus keep every column; a boundary such as the 1 x 0.5
ellipse stays rank-deficient, and an unpivoted fit of all its columns is not
stable (KEEP_CUT).  Each run shares its base solvers:
``base_solver`` keeps one solver per (boundary assignment, config) in the
domain's memo, and a run keeps one Domain per curve, so every case on a
boundary solves on one matrix and one set of factors.

Re-solves: ``GreensSolver.moved(family, t)`` is the solver of T_t(Omega) on
the T_t images of its base's kept charges, in ring order.  It decides
nothing, so every t of a finite-difference ladder has the same charge set,
and at t = 0 its matrix is the base's own.  The Hadamard tangent route
differentiates that problem at t = 0 on the base's factors instead of
re-solving it: ``collocation_rate_products`` applies the exact t-rates of
its matrix and data to a block of columns, row block by row block in one
sweep per component, without assembling them, and ``MixedSolver.fit``
applies A^+ and (A^T A)^-1 = R^-1 R^-T.  So the green-variations benchmark
assembles and factors one matrix per boundary, pivots three n x n
triangles and makes no re-solve; the registry re-solves only for its
perturbed-scaling case.

Blocks are the unit of work: one solve per batch; per-column products
keep bits.  A solve takes one data set or a block of k of them (several
poles, several variation data sets) and fits them at once on the same
columns.  The result is a field with a (K, k) coefficient block.  A block
field builds its (N, K) kernel matrix once per call and takes one
matrix-vector product per column, so column j of any block evaluation is
bit-identical to evaluating field j alone (one gemm would reorder the
sums).  Block results stack the k columns on a leading axis.  Fields
evaluate their kernel in row blocks of at most BLOCK_ENTRIES entries, each
row with the BLAS kernel it meets in one whole evaluation, so rows keep
their bits and no block passes 1 MB, whatever the point count.
A collocation matrix is written in such row blocks too, straight into its
Fortran-ordered array.

The kernels work on (N, K) arrays of point-source offsets.  Sums of kernel
gradients over the charges use the complex form
grad Gamma(p - s) = -conj(1 / (z - s)) / (2 pi) with z = p1 + i p2, which
turns the sum into one complex matrix-vector product per field.

One discretization path for the base and the deformed boundary: every
point set (grid, collocation and check nodes) is ``pushed_frame``'s, and a
base solver's grid is the Domain's own, so re-solves along a t-ladder differ
only through the deformation, never through a change of discretization at t=0.

LAPACK and BLAS (dgeqrt, dgemqrt, dgeqp3, dgesdd and its workspace query,
dtrsm) come from the OpenBLAS library that numpy's wheel bundles and
``import numpy`` has already mapped, called through ctypes (``_linalg``), so
a process holds one OpenBLAS, not a second one of scipy's, and imports no
scipy module.  Each routine has the call shape of its scipy.linalg.lapack or
.blas namesake and raises a ValueError on an illegal argument; dtrsm reads
``qr[:n]`` where it lies, without a copy.  Only where numpy bundles no such
library are the routines scipy's compiled modules, loaded without importing
the scipy.linalg package (0.3 s of CPU in a fresh process).
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._linalg import load as load_linalg
from .geometry import (TWO_PI, Domain, FourierBasis, MixedBoundary, PointSet, frame_rates,
                       pushed_frame)

INV_2PI = 1.0 / (2.0 * np.pi)
# angles of the off-grid check nodes of each component
CHECK_THETAS = TWO_PI * (np.arange(64) + 0.5) / 64
# kernel entries in one row block of a field evaluation (at least 64 rows)
# or of a collocation matrix assembly.  On the former 9216-node interior rule
# (48 x 192) against 384 charges a whole gradient kernel was 57 MB and a block
# of 2 ** 18 entries 4 MB; while the second variation took that rule, 2 ** 14
# cut peak RSS by 2 MB on the green-variations benchmark and by 5 MB on the
# registry (two-vCPU x86_64, one BLAS thread), at the same CPU time
BLOCK_ENTRIES = 2 ** 14
# kernel entries in one row block of a rate product: its few complex
# temporaries stay at 64 KB each
RATE_BLOCK_ENTRIES = 2 ** 12
# a base solver keeps the columns whose diagonal |R_kk| in the pivoted QR
# of its matrix's triangle R exceeds KEEP_CUT |R_11|.  Under the ring rule
# the smallest such ratio of the disk, the annulus and the eps = 0.2 star is
# at least 5.7e-12 from 16 to 256 charges, so they keep every column.  The
# 1 x 0.5 ellipse at 96 charges keeps 82 of 96: unpivoted QR of all 96
# reads min |R_kk| / |R_11| = 1e-16, and its fit of the pole (0, 0.2) has
# coefficients near 5e8, against 5e4 on the kept 82.  Pivoting R keeps as
# many columns as pivoting the matrix on the three ellipses tried, from 32 to
# 256 charges, though on a symmetric near-tie it may keep the other twin
KEEP_CUT = 1e-12
# panel width of the blocked QR (dgeqrt), and the block of dgeqp3's workspace
QR_BLOCK = 32


_lapack, _blas = load_linalg()


class GreensError(ValueError):
    """Invalid pole, boundary assignment, topology or solver config."""


class GreensAccuracyError(RuntimeError):
    """Check-node residual exceeded the configured hard threshold."""


@dataclass(frozen=True)
class GreensConfig:
    """Charges per ring and the largest check-node residual a solve may return.

    The charge count has no default: a run's is ``CaseSettings.n_charges``.
    The rings themselves follow one rule (``Domain.charge_rings``).
    """

    n_charges: int
    fail_threshold: float = 1e-4

    def __post_init__(self):
        if isinstance(self.n_charges, bool) or not isinstance(self.n_charges, numbers.Integral):
            raise GreensError(f"n_charges must be an integer, not {self.n_charges!r}")
        if not self.n_charges >= 1:
            raise GreensError(f"n_charges must be at least 1, not {self.n_charges!r}")
        if not self.fail_threshold > 0.0:  # NaN fails too
            raise GreensError("fail_threshold must be above 0, "
                              f"not {self.fail_threshold!r}")


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


def _plane(points: np.ndarray) -> np.ndarray:
    """(..., 2) points as complex numbers x1 + i x2."""
    return points @ (1.0, 1j)


def _motion(family, points: np.ndarray) -> list[np.ndarray]:
    """The complex velocity S and acceleration R of (N, 2) points under ``family``."""
    return [_plane(family.velocity(points)), _plane(family.acceleration(points))]


def kernel_rates(points, sources, point_motion, source_motion, normals=None,
                 order: int = 1):
    """The t-derivatives of orders 1 to ``order`` at t = 0 of the (N, K) kernel
    Gamma(p_i(t) - s_j(t)), or with ``normals`` of its normal derivative
    grad Gamma(p_i(t) - s_j(t)) . nu_i(t), one row block at a time.

    Points, sources and normals are complex (x1 + i x2).  Each motion is the
    (velocity, acceleration) of its point set, arrays or 0 for a fixed set,
    and ``normals`` is (nu, nu', nu'') per point.  Gamma = Re F with
    F(w) = -log(w) / (2 pi) and w = p - s; with q = w'/w and a = w''/w:
    - value rows: Re F' w' = -Re q / (2 pi) and
      Re(F'' w'^2 + F' w'') = Re(q^2 - a) / (2 pi);
    - normal-derivative rows: Re(F'' w' nu + F' nu') = Re((q nu - nu') / w) / (2 pi)
      and Re(F''' w'^2 nu + F'' w'' nu + 2 F'' w' nu' + F' nu'')
      = Re(((a - 2 q^2) nu + 2 q nu' - nu'') / w) / (2 pi).
    Yields (start, rates) per block of at most RATE_BLOCK_ENTRIES entries:
    the real rates of orders 1 to ``order`` of the rows from ``start`` on.
    """
    points = np.atleast_1d(points)
    velocity, acceleration = (np.broadcast_to(m, points.shape) for m in point_motion)
    step = max(1, RATE_BLOCK_ENTRIES // len(sources))
    for start in range(0, len(points), step):
        rows = slice(start, start + step)
        inv = np.reciprocal(np.subtract.outer(points[rows], sources))
        q = np.subtract.outer(velocity[rows], source_motion[0])
        q *= inv
        if order == 2:
            a = np.subtract.outer(acceleration[rows], source_motion[1])
            a *= inv
        if normals is None:
            rates = [-INV_2PI * q.real]
            if order == 2:
                q *= q
                q -= a
                rates.append(INV_2PI * q.real)
            yield start, rates
            continue
        nu, dnu, ddnu = (n[rows, None] for n in normals)
        first = q * nu
        first -= dnu
        first *= inv
        rates = [INV_2PI * first.real]
        if order == 2:
            second = np.multiply(q, dnu, out=first)
            second *= 2.0
            second -= ddnu
            q *= q
            q *= -2.0
            q += a
            q *= nu
            second += q
            second *= inv
            rates.append(INV_2PI * second.real)
        yield start, rates


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
    """A component's condition, its grid, collocation and check point sets, and charges."""

    dirichlet: bool
    grid: PointSet
    colloc: PointSet
    check: PointSet
    charges: np.ndarray
    # the charges are the domain's whole rings, whose independent columns a
    # solver keeps, not the images of a base's kept charges
    whole_rings: bool = False

    def datum(self, value, gradient, points: PointSet) -> np.ndarray:
        """A function's value on a Dirichlet piece, its normal derivative on a
        Neumann piece, at ``points``, from its ``value`` or ``gradient``."""
        if self.dirichlet:
            return value(points.nodes)
        return rowwise_dot(gradient(points.nodes), points.normal)


def _winding_number(nodes: np.ndarray, point: np.ndarray) -> float:
    diff = nodes - point[None, :]
    ang = np.arctan2(diff[:, 1], diff[:, 0])
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + np.pi) % TWO_PI - np.pi
    return float(np.sum(dang) / TWO_PI)


@functools.cache
def _fourier_bases(m: int, n_col: int) -> tuple[FourierBasis, FourierBasis]:
    """The interpolation from m grid nodes to the collocation angles 2 pi j / n_col
    and to ``CHECK_THETAS`` (``discretize_pushed``'s), one read-only pair per
    (m, n_col) that every solver shares."""
    bases = (FourierBasis.at(m, TWO_PI * np.arange(n_col) / n_col),
             FourierBasis.at(m, CHECK_THETAS))
    for basis in bases:
        for table in (basis.cos, basis.sin, basis.nyquist):
            if table is not None:
                table.flags.writeable = False
    return bases


def discretize_pushed(domain: Domain, mixed: MixedBoundary, family, t: float,
                      config: GreensConfig, charges=None) -> list[ComponentDiscretization]:
    """Discretize the boundary of T_t(Omega) for collocation.

    One path for every t: each point set (grid, collocation and check
    nodes) is ``pushed_frame``'s at its angles, and the charges are the T_t
    images of the base charges.  ``family=None`` is the identity, and then
    the grid is the domain's own ``BoundaryGrid``.  The base charges of each
    component are ``charges[i]``, by default the domain's cached ring
    (``Domain.charge_rings``), and then the components are ``whole_rings``.
    The discretization is therefore continuous in t, and a family that does
    not move a point set leaves it bit-identical.
    """
    if len(mixed.kinds) != domain.n_components:
        raise GreensError("boundary assignment does not match component count")
    n_col = int(round(2.0 * config.n_charges))  # two collocation nodes per charge
    th_col = TWO_PI * np.arange(n_col) / n_col
    whole_rings = charges is None
    if whole_rings:
        charges = domain.charge_rings(config.n_charges)
    comps = []
    for i, (curve, grid, base) in enumerate(zip(domain.curve.components, domain.grids,
                                                charges)):
        if family is not None:
            grid = pushed_frame(curve, grid.thetas, family, t)
        colloc, check = (pushed_frame(curve, thetas, family, t)
                         for thetas in (th_col, CHECK_THETAS))
        comps.append(ComponentDiscretization(
            mixed.is_dirichlet(i), grid, colloc, check,
            base if family is None else family.map(base, t), whole_rings))
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

    def _by_row_blocks(self, evaluate, points: np.ndarray) -> np.ndarray:
        """``evaluate`` on row blocks of at most BLOCK_ENTRIES kernel entries,
        joined on the point axis.

        Blocks hold a multiple of 64 rows and a last block of one row joins
        the one before it, so each row meets the same BLAS kernel as in one
        evaluation of every point and keeps its bits.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        step = max(64, BLOCK_ENTRIES // len(self.charges) // 64 * 64)
        bounds = [0, *range(step, len(points) - 1, step), len(points)]
        if len(bounds) == 2:
            return evaluate(points)
        return np.concatenate([evaluate(points[a:b]) for a, b in zip(bounds, bounds[1:])],
                              axis=self.coefficients.ndim - 1)

    def value(self, points: np.ndarray) -> np.ndarray:
        return self._by_row_blocks(
            lambda pts: _per_column(fundamental_solution(pts, self.charges),
                                    self.coefficients), points)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return self._by_row_blocks(self._gradient, points)

    def _gradient(self, points: np.ndarray) -> np.ndarray:
        # grad Gamma(p - s) = -conj(1/(z - s)) / (2 pi) with z = p1 + i p2,
        # so the sum over charges is one complex matrix-vector product.
        w = np.subtract.outer(points[:, 0] + 1j * points[:, 1],
                              self.charges[:, 0] + 1j * self.charges[:, 1])
        if np.any(w == 0.0):
            raise GreensError("evaluation point coincides with a source")
        np.reciprocal(w, out=w)
        total = _per_column(w, self.coefficients)
        return np.stack([-INV_2PI * total.real, INV_2PI * total.imag], axis=-1)

    def hessian(self, points: np.ndarray) -> np.ndarray:
        return self._by_row_blocks(self._hessian, points)

    def _hessian(self, points: np.ndarray) -> np.ndarray:
        kernel = fundamental_hessian(points, self.charges)
        if self.coefficients.ndim == 1:
            return np.einsum("nkij,k->nij", kernel, self.coefficients)
        return np.stack([np.einsum("nkij,k->nij", kernel, c) for c in self.coefficients.T])


@dataclass
class SolveDiagnostics:
    residual: float
    n_unknowns: int


class _QRFactors:
    """Unpivoted blocked QR  A = Q R  of a solver's matrix, built at its first solve.

    The matrix holds only columns that a base solver's pivoted QR kept, or
    their T_t images, so it is factored without pivoting or truncation.
    dgeqrt factors it in place (Elmroth-Gustavson recursive QR, BLAS-3 on
    panels of QR_BLOCK columns), since a Fortran-ordered matrix passed with
    overwrite_a is not copied.  A solve applies Q^T (dgemqrt) and R^-1
    (dtrsm).
    """

    def __init__(self, matrix: np.ndarray):
        self.qr, self.t, _ = _lapack.dgeqrt(min(QR_BLOCK, matrix.shape[1]),
                                            np.asarray_chkfinite(matrix), overwrite_a=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The least-squares solution for data (rows,) or a (rows, k) block."""
        n = self.qr.shape[1]
        block = np.asarray_chkfinite(rhs).reshape(len(self.qr), -1)
        qtb, _ = _lapack.dgemqrt(self.qr, self.t, block, side="L", trans="T")
        x = _blas.dtrsm(1.0, self.qr[:n], qtb[:n])
        return x if rhs.ndim == 2 else x[:, 0]

    def fit(self, data: np.ndarray, gram: np.ndarray):
        """(x, data - A x) for x = A^+ data + (A^T A)^-1 gram, one data column.

        (A^T A)^-1 = R^-1 R^-T, two dtrsm.  With Q^T data = (g1, g2),
        x = R^-1 (g1 + R^-T gram) and data - A x = Q (-R^-T gram, g2), so the
        residual needs no copy of A.
        """
        n = self.qr.shape[1]
        qtb, _ = _lapack.dgemqrt(self.qr, self.t, np.reshape(data, (-1, 1)),
                                 side="L", trans="T")
        top = -_blas.dtrsm(1.0, self.qr[:n], np.reshape(gram, (-1, 1)), trans_a=1)
        x = _blas.dtrsm(1.0, self.qr[:n], qtb[:n] - top)
        qtb[:n] = top
        residual, _ = _lapack.dgemqrt(self.qr, self.t, qtb, side="L", trans="N")
        return x[:, 0], residual[:, 0]


class MixedSolver:
    """Shared collocation matrix for one (possibly deformed) boundary.

    Dirichlet rows match values, Neumann rows match normal derivatives.  The
    matrix is assembled once, in Fortran order, and shared by every
    right-hand side.  Each ``solve`` is a least-squares fit of a data set or
    a block of them on its unpivoted QR factors, built in place, so from
    then on ``matrix`` holds them.  On the domain's whole charge rings (a
    base boundary) the solver factors when it is built, then keeps only the
    columns that column-pivoted QR (dgeqp3) of R finds independent,
    |R_kk| > KEEP_CUT |R_11|, in ring order, and its ``components`` and
    ``charges`` only their charges.  On the images of a base's kept charges
    it keeps every column and factors at its first solve or fit.  The
    condition estimate is an SVD of the matrix, or of its R factor once
    factored, computed on first read.
    """

    def __init__(self, components: list[ComponentDiscretization], config: GreensConfig):
        self.config = config
        self.components = components
        self.charges = np.vstack([c.charges for c in components])
        self.matrix = self._assemble()
        self._factors: _QRFactors | None = None
        if all(c.whole_rings for c in components):
            self._keep_independent_columns()

    def _assemble(self) -> np.ndarray:
        """The collocation matrix on the solver's charges, in Fortran order (QR
        factors it without a copy), written in row blocks of at most
        BLOCK_ENTRIES entries; an entry depends on its node and charge alone."""
        matrix = np.empty((sum(c.colloc.size for c in self.components), len(self.charges)),
                          order="F")
        step = max(1, BLOCK_ENTRIES // len(self.charges))
        offset = 0
        for comp in self.components:
            for start in range(0, comp.colloc.size, step):
                block = slice(start, start + step)
                nodes = comp.colloc.nodes[block]
                rows = matrix[offset + start:offset + start + len(nodes)]
                if comp.dirichlet:
                    rows[...] = fundamental_solution(nodes, self.charges)
                else:
                    gx, gy = _gradient_components(nodes, self.charges)
                    np.multiply(gx, comp.colloc.normal[block, :1], out=rows)
                    gy *= comp.colloc.normal[block, 1:]
                    rows += gy
            offset += comp.colloc.size
        return matrix

    def _keep_independent_columns(self) -> None:
        """Factor the matrix in place, then drop the columns, and their charges,
        that pivoted QR of its n x n triangle R (A^T A = R^T R) finds dependent;
        the kept columns are then assembled again, bit for bit, and factored."""
        n = self.matrix.shape[1]
        triangle = np.tril(self.factors.qr[:n].T).T  # R, Fortran-ordered: pivoted in place
        r, pivots, _, _, _ = _lapack.dgeqp3(triangle, overwrite_a=1,
                                            lwork=2 * n + (n + 1) * QR_BLOCK)
        diagonal = np.abs(np.diagonal(r))
        keep = np.zeros(n, dtype=bool)
        keep[pivots[diagonal > KEEP_CUT * diagonal[0]] - 1] = True
        if keep.all():
            return
        self.charges = self.charges[keep]
        splits = np.cumsum([len(c.charges) for c in self.components])[:-1]
        self.components = [dataclasses.replace(c, charges=c.charges[k], whole_rings=False)
                           for c, k in zip(self.components, np.split(keep, splits))]
        self.matrix = self._assemble()
        self._factors = _QRFactors(self.matrix)

    @property
    def factors(self) -> _QRFactors:
        """The QR factors of the matrix, built in place on first use."""
        if self._factors is None:
            self._factors = _QRFactors(self.matrix)
        return self._factors

    @functools.cached_property
    def condition_estimate(self) -> float:
        # the dgesdd call of scipy.linalg.svdvals, with its workspace; R has
        # the singular values of the matrix its QR overwrote
        matrix = self.matrix
        if self._factors is not None:
            matrix = np.triu(matrix[:matrix.shape[1]])
        m, n = matrix.shape
        work, _ = _lapack.dgesdd_lwork(m, n, compute_uv=0, full_matrices=0)
        _, sv, _, info = _lapack.dgesdd(np.asarray_chkfinite(matrix), compute_uv=0,
                                        full_matrices=0, lwork=int(work))
        if info != 0:
            raise np.linalg.LinAlgError(f"dgesdd failed with info {info}")
        return float(sv[0] / max(sv[-1], 1e-300))

    def solve(self, rhs_per_component: list[np.ndarray], check_data: list[np.ndarray]):
        """Fit one data set, or a block of k, in one solve.

        Each component's data is (rows_i,) for one set or (k, rows_i) for k
        sets; together they form the (rows, k) right-hand-side block.  The
        field has a (K, k) coefficient block and the diagnostics are one
        ``SolveDiagnostics`` per column (a tuple), or the plain field and
        diagnostics for one set.  On matrices of 192 or more columns the
        block's columns have matched single solves bit for bit; on smaller
        ones they agree to rounding.
        """
        rhs = np.concatenate(rhs_per_component, axis=-1)
        fld = HarmonicField(self.charges, self.factors.solve(rhs.T))
        # per data set, the worst check-node residual over the components
        residual = np.max([np.max(np.abs(comp.datum(fld.value, fld.gradient, comp.check)
                                         - data), axis=-1)
                           for comp, data in zip(self.components, check_data)], axis=0)
        diags = tuple(SolveDiagnostics(float(r), self.matrix.shape[1])
                      for r in np.atleast_1d(residual))
        total = float(np.max(residual))
        if not total <= self.config.fail_threshold:  # a NaN residual fails too
            raise GreensAccuracyError(
                f"check-node residual {total:.3e} exceeds "
                f"{self.config.fail_threshold:.1e} "
                f"(condition estimate {self.condition_estimate:.2e})")
        return fld, diags[0] if rhs.ndim == 1 else diags

    def fit(self, data: np.ndarray, gram: np.ndarray):
        """``_QRFactors.fit`` on this solver's matrix."""
        return self.factors.fit(data, gram)

    @property
    def fourier_bases(self) -> tuple[FourierBasis, FourierBasis]:
        """The interpolation from grid nodes to the collocation and to the check
        angles, which every component shares, as does every solver on grids
        of the same sizes."""
        comp = self.components[0]
        return _fourier_bases(comp.grid.size, comp.colloc.size)

    def solve_nodal(self, nodal_per_component: list[np.ndarray]):
        """Fit grid-nodal data, (M,) or (k, M) per component, Fourier-interpolated
        to the collocation and check nodes by the solver's bases."""
        def interpolate(nodal, basis):
            if np.ndim(nodal) == 1:
                return basis(nodal)
            return np.stack([basis(row) for row in nodal])

        col, chk = ([interpolate(nodal, basis) for nodal in nodal_per_component]
                    for basis in self.fourier_bases)
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
            grid = self.components[i].grid
            trace = rowwise_dot(self.gradient(grid.nodes), getattr(grid, frame))
            trace.flags.writeable = False
            self._traces[key] = trace
        return self._traces[key]

    def normal_trace(self, i: int) -> np.ndarray:
        return self._trace(i, "normal")

    def tangential_trace(self, i: int) -> np.ndarray:
        return self._trace(i, "tangent")

    def boundary_values(self, i: int) -> np.ndarray:
        return self.value(self.components[i].grid.nodes)


def contains(components: list[ComponentDiscretization], point: np.ndarray) -> bool:
    w = sum(_winding_number(c.grid.nodes, np.asarray(point, float)) for c in components)
    return abs(w - 1.0) < 0.5


class GreensSolver:
    """Green's-function factory for one domain and boundary assignment
    (``base_solver`` shares the one of the undeformed boundary).

    ``charges`` are the base charges of each component before T_t.  By
    default they are the domain's charge rings, whose independent columns
    the solver keeps (``MixedSolver``); ``moved`` passes a base's kept
    charges, which the solver keeps whole.
    """

    def __init__(self, domain: Domain, mixed: MixedBoundary, config: GreensConfig,
                 family=None, t: float = 0.0, charges=None):
        self.domain = domain
        self.mixed = mixed
        self.config = config
        self.solver = MixedSolver(
            discretize_pushed(domain, mixed, family, t, self.config, charges), self.config)
        self.components = self.solver.components

    def corrector_data(self, y: np.ndarray):
        """Corrector data at collocation and check nodes for a pole or (k, 2)
        poles: minus the boundary datum of Gamma(. - y)."""
        value = functools.partial(_per_pole, fundamental_solution, y=y)
        gradient = functools.partial(_per_pole, fundamental_gradient, y=y)
        return ([-c.datum(value, gradient, c.colloc) for c in self.components],
                [-c.datum(value, gradient, c.check) for c in self.components])

    def solve(self, y) -> GreensEval:
        """N(., y) for one pole (2,), or a block for poles (k, 2) in one solve."""
        y = np.asarray(y, dtype=float)
        for pole in np.atleast_2d(y):
            if not contains(self.components, pole):
                raise GreensError(f"pole {pole} is not interior to the domain")
        col, chk = self.corrector_data(y)
        fld, diag = self.solver.solve(col, check_data=chk)
        return GreensEval(y, fld, self.components, diag)

    def harmonic_bvp(self, nodal_data: list[np.ndarray]):
        """Solve the mixed BVP with grid-nodal Dirichlet/Neumann data.

        Per component one data set (M,) or k of them (k, M), in one solve.
        """
        return self.solver.solve_nodal(nodal_data)

    def collocation_rate_products(self, family, y: np.ndarray, order: int,
                                  right: np.ndarray, left: np.ndarray) -> list[tuple]:
        """(P_k right, P_k^T left) for k = 1 to ``order``, where P_k = [A_k | -b_k]
        holds the k-th t-derivatives at t = 0 of the collocation matrix and of
        the corrector data for the pole y, as this undeformed boundary and its
        charges move by ``family``.

        These are the rates of the problem that the re-solves
        ``moved(family, t)`` fit, whose t = 0 matrix is this solver's own.
        Nodes and charges move with ``family.velocity`` and ``acceleration``,
        the pole stays, and Neumann rows turn with ``frame_rates``; the pole
        is one more kernel column.
        ``right`` is (K + 1,) or (K + 1, p) and ``left`` (rows,) or (rows, p).
        P_k is never whole: each row block of ``kernel_rates`` adds its share
        to both products.
        """
        sources = _plane(np.vstack([self.solver.charges, y]))
        source_motion = [np.append(m, 0.0) for m in _motion(family, self.solver.charges)]
        products = [(np.empty((len(left), *np.shape(right)[1:])),
                     np.zeros((len(sources), *np.shape(left)[1:]))) for _ in range(order)]
        offset = 0
        for curve, comp in zip(self.domain.curve.components, self.components):
            nodes = comp.colloc.nodes
            normals = (None if comp.dirichlet
                       else frame_rates(curve, comp.colloc.thetas, family))
            for start, rates in kernel_rates(_plane(nodes), sources, _motion(family, nodes),
                                             source_motion, normals, order):
                rows = slice(offset + start, offset + start + len(rates[0]))
                for (forward, back), rate in zip(products, rates):
                    forward[rows] = rate @ right
                    back += rate.T @ left[rows]
            offset += len(nodes)
        return products

    def kernel_row_rates(self, family, x: np.ndarray, order: int) -> list[np.ndarray]:
        """Gamma(x - z_j(t)) over this undeformed solver's charges z_j at the
        fixed point x, then its t-derivatives of orders 1 to ``order`` at
        t = 0 as the charges move by ``family``: ``order`` + 1 rows (K,)."""
        charges = self.solver.charges
        _, rates = next(kernel_rates(_plane(x), _plane(charges), (0.0, 0.0),
                                     _motion(family, charges), order=order))
        return [row[0] for row in (fundamental_solution(x, charges), *rates)]

    def moved(self, family, t: float) -> "GreensSolver":
        """The solver of T_t(Omega) for this undeformed one, on the T_t images
        of its kept charges, in ring order: it decides no columns, so the
        re-solves of an FD ladder share one charge set."""
        return GreensSolver(self.domain, self.mixed, self.config, family, t,
                            [c.charges for c in self.components])


def base_solver(domain: Domain, mixed: MixedBoundary, config: GreensConfig) -> GreensSolver:
    """The domain's one solver of its undeformed boundary under (mixed, config).

    Built on the first request and kept in the domain's memo, so every route
    and case on that boundary shares its kept columns, its matrix and the QR
    factors of its solves.
    """
    return domain.memo(("greens", mixed, config),
                       lambda: GreensSolver(domain, mixed, config))


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
        diff = comp.grid.nodes - y[None, :]
        r = np.hypot(diff[:, 0], diff[:, 1])
        v = (-np.log(r) * INV_2PI / 2.0 + INV_2PI / 4.0)[:, None] * diff
        total += comp.grid.integrate(np.einsum("ni,ni->n", v, comp.grid.normal))
    return total


def representation_check(domain: Domain, mixed: MixedBoundary, z_specs: list, probes,
                         config: GreensConfig) -> list[RepresentationReport]:
    """Reconstruct a manufactured solution from its Green's-function representation.

    Given z with -Laplacian z = f, Dirichlet values on gamma^0, and flux on
    gamma^1, the solver's N must recover z(y) = (N(.,y), f)
    - <z, dN/dnu>_{gamma0} + <N(.,y), dz/dnu>_{gamma1} at every probe.

    The volume pairing is evaluated with singularity subtraction: the
    corrector part is smooth, the log kernel against f(y) reduces exactly to
    a boundary integral, and the remaining integrand vanishes at the pole.

    ``z_specs`` is a list of manufactured solutions, one report each.  The
    probes are solved at once, and their correctors and traces are evaluated
    once for every solution.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    solver = base_solver(domain, mixed, config)
    interior = domain.interior()
    ev = solver.solve(probes)
    corrector = ev.corrector_value(interior.nodes)
    gamma = fundamental_solution(interior.nodes, probes).T
    moments = [_log_moment_boundary(solver.components, y) for y in probes]
    traces = [ev.normal_trace(i) if comp.dirichlet else ev.value(comp.grid.nodes)
              for i, comp in enumerate(solver.components)]
    reports = []
    for spec in z_specs:
        hess = spec.hessian(interior.nodes, 0.0)
        f = -(hess[:, 0, 0] + hess[:, 1, 1])
        data = [comp.datum(lambda p: spec.value(p, 0.0), lambda p: spec.gradient(p, 0.0),
                           comp.grid) for comp in solver.components]
        exact, recon = [], []
        for j, y in enumerate(probes):
            fy = float(-np.trace(spec.hessian(y[None, :], 0.0)[0]))
            total = float(np.dot(interior.weights,
                                 corrector[j] * f + gamma[j] * (f - fy)))
            total += fy * moments[j]
            for comp, trace, phi in zip(solver.components, traces, data):
                pairing = comp.grid.integrate(trace[j] * phi)
                total += -pairing if comp.dirichlet else pairing
            recon.append(total)
            exact.append(float(spec.value(y[None, :], 0.0)[0]))
        recon = np.asarray(recon)
        exact = np.asarray(exact)
        reports.append(RepresentationReport(probes, recon, exact,
                                            float(np.max(np.abs(recon - exact)))))
    return reports
