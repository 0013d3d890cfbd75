"""Mixed Dirichlet/Neumann Laplace Green's function on smooth plane domains.

The harmonic corrector is represented by the method of fundamental
solutions: a sum of log-kernels with sources on dilated copies of each
boundary component (outside the domain for the outer curve, inside each
hole).  Coefficients are fit by least squares on oversampled collocation
nodes with column-pivoted QR and relative truncation (LAPACK gelsy), the
standard stabilization for these exponentially ill-conditioned systems.
The collocation matrix is assembled once per boundary and shared by every
right-hand side.  Its condition estimate is an SVD, computed only when read.

One factorization per boundary: the first solve on a matrix is a gelsy
call, which also yields the rank and the columns its truncation kept.
Every later solve on that matrix applies gelsy's factors, built once at
that rank by gelsy's own LAPACK steps (dgeqp3, then dtzrzf below full
rank) and applied as gelsy applies them (dormqr, dtrsm, dormrz, then the
pivots), so it returns gelsy's solution bit for bit.  The first solve stays
on gelsy because gelsy's rank comes from LAPACK's incremental condition
estimator dlaic1, which scipy does not expose.  A Python port of it matched
gelsy's rank on 102 of 102 matrices but cost 1.5-4 ms per matrix, and 102
of the 114 matrices of the green-variations benchmark are one-shot FD
re-solves: factoring every matrix that way saved 0.2 s there, factoring
only for a second solve 0.42 s.  Each run shares its base solvers:
``base_solver`` keeps one solver per (boundary assignment, config) in the
domain's memo, and a run keeps one Domain per curve, so every case on a
boundary solves on one matrix and one set of factors.  FD re-solves stay
per t and unshared.

Kept columns: the first solve on a matrix names, through gelsy's pivots,
the columns its truncation kept.  The re-solves of a finite-difference
t-ladder take the T_t images of the kept charges only and factor that
smaller matrix, so every t of the ladder has the same charge set.  On a
full-rank matrix every column is kept, in its original order, and the
re-solves are those of the whole ring.  Solves on the base matrix itself,
poles and variation data alike, use every column: the variation data feed
boundary derivatives, and on the mixed annulus a fit on the kept columns
alone resolved those less well than gelsy's fit on every column.

Blocks are the unit of work: one solve per batch; per-column products
keep bits.  A solve takes one data set or a block of k of them (several
poles, several variation data sets) and fits them at once; gelsy's rank
depends only on the matrix, so every column gets the same truncation.  The
result is a field with a (K, k) coefficient block.  A block field builds
its (N, K) kernel matrix once per call and takes one matrix-vector product
per column, so column j of any block evaluation is bit-identical to
evaluating field j alone (one gemm would reorder the sums).  Block results
stack the k columns on a leading axis.  Fields evaluate their kernel in
row blocks of at most BLOCK_ENTRIES entries, each row with the BLAS kernel
it meets in one whole evaluation, so rows keep their bits while the kernel
of the interior rule stays a few MB.

The kernels work on (N, K) arrays of point-source offsets.  Sums of kernel
gradients over the charges use the complex form
grad Gamma(p - s) = -conj(1 / (z - s)) / (2 pi) with z = p1 + i p2, which
turns the sum into one complex matrix-vector product per field.

The deformed boundary of T_t(Omega) takes the base boundary's path: its
nodes, frames and charge rings are the T_t images of the base point sets,
so re-solves along a finite-difference t-ladder differ only through the
deformation, never through a change of discretization at t=0.

LAPACK and BLAS come from scipy's compiled modules scipy.linalg._flapack
(dgelsy, dgeqp3, dtzrzf, dormqr, dormrz, dgesdd and their workspace
queries) and scipy.linalg._fblas (dtrsm), loaded from their files after
``import scipy``.  Importing the scipy.linalg package instead runs its
__init__, whose array-API copy of the numpy namespace imports numpy.f2py,
numpy.testing and unittest: 0.3 s of CPU in every fresh process, half of
what ``import shapelab.cli`` cost.  The routines are the objects that
scipy.linalg.lapack and .blas re-export, so every solve keeps its bits.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np
import scipy

from .geometry import TWO_PI, Domain, FourierBasis, MixedBoundary, pushed_frame

INV_2PI = 1.0 / (2.0 * np.pi)
# angles of the off-grid check nodes of each component
CHECK_THETAS = TWO_PI * (np.arange(64) + 0.5) / 64
# kernel entries in one row block of a field evaluation: 4 MB of complex
# gradient kernel, where the 9216-node interior rule against 384 charges
# made one 57 MB array
BLOCK_ENTRIES = 2 ** 18


def _linalg_extension(name: str):
    """scipy.linalg's compiled module ``name``, loaded from its file without
    running scipy/linalg/__init__.py.

    Once scipy.linalg is imported, or when the file does not load, this is
    the ordinary import, which returns the same module.
    """
    full = f"scipy.linalg.{name}"
    if "scipy.linalg" not in sys.modules and full not in sys.modules:
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg",
                            name + EXTENSION_SUFFIXES[0])
        loader = ExtensionFileLoader(full, path)
        try:
            module = module_from_spec(spec_from_loader(full, loader))
            loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[full] = module
    return importlib.import_module(full)


_lapack = _linalg_extension("_flapack")
_blas = _linalg_extension("_fblas")


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
                      config: GreensConfig, charges=None) -> list[ComponentDiscretization]:
    """Discretize the boundary of T_t(Omega) for collocation.

    One path for every t: each point set (grid, collocation and check
    nodes, charge rings) is the T_t image of its base-boundary set, with
    frames from the deformation Jacobian, and ``family=None`` is the
    identity.  The base charges of each component are ``charges[i]``, by
    default the domain's cached ring (a dilation of the component about its
    area centroid).  The discretization is therefore continuous in t, and a
    family that does not move a point set leaves it bit-identical.
    """
    if len(mixed.kinds) != domain.n_components:
        raise GreensError("boundary assignment does not match component count")
    n_col = int(round(2.0 * config.n_charges))  # two collocation nodes per charge
    th_col = TWO_PI * np.arange(n_col) / n_col
    if charges is None:
        charges = domain.charge_rings(config.n_charges, config.charge_offset_outer)
    comps = []
    for i, (curve, grid, base) in enumerate(zip(domain.curve.components, domain.grids,
                                                charges)):
        nodes, tangent, normal, speed = pushed_frame(curve, grid.thetas, family, t)
        col_n, _, col_nu, _ = pushed_frame(curve, th_col, family, t)
        chk_n, _, chk_nu, _ = pushed_frame(curve, CHECK_THETAS, family, t)
        charges_i = base if family is None else family.map(base, t)
        comps.append(ComponentDiscretization(
            dirichlet=mixed.is_dirichlet(i), nodes=nodes, tangent=tangent,
            normal=normal, weights=(TWO_PI / grid.size) * speed,
            colloc_nodes=col_n, colloc_normal=col_nu,
            colloc_thetas=th_col, check_nodes=chk_n, check_normal=chk_nu,
            charges=charges_i))
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
    per_component: tuple
    rank: int
    n_unknowns: int


def _gelsy_lwork(m: int, n: int, n_rhs: int) -> int:
    """The workspace gelsy takes for an (m, n) matrix and n_rhs data columns."""
    work, _ = _lapack.dgelsy_lwork(m, n, n_rhs, 1e-13)
    return int(work)


def _gelsy(matrix: np.ndarray, rhs: np.ndarray):
    """(solution, rank, pivots) of the truncated least-squares fit, relative threshold 1e-13.

    The LAPACK call ``scipy.linalg.lstsq(..., lapack_driver="gelsy")`` makes,
    with its workspace, so the solution keeps lstsq's bits; ``pivots`` are
    gelsy's 1-based column pivots, whose first ``rank`` entries are the
    columns the truncation kept.
    """
    matrix, rhs = np.asarray_chkfinite(matrix), np.asarray_chkfinite(rhs)
    m, n = matrix.shape
    n_rhs = 1 if rhs.ndim == 1 else rhs.shape[1]
    _, x, pivots, rank, info = _lapack.dgelsy(
        matrix, rhs, np.zeros(n, dtype=np.int32), 1e-13, _gelsy_lwork(m, n, n_rhs),
        False, False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gelsy")
    return x[:n], rank, pivots


class _GelsyFactors:
    """gelsy's factors of one matrix at its rank, stored for the solves after the first.

    They come from gelsy's own LAPACK steps with its workspace: the
    column-pivoted QR  A P = Q [R11 R12; 0 R22]  (dgeqp3) and, below full
    rank, the RZ factorization  [R11 R12] = [T11 0] Z  (dtzrzf).  A solve
    applies Q^T (dormqr), T11^-1 (dtrsm), Z^T (dormrz) and the pivots, the
    steps gelsy takes after its rank estimate, so it returns gelsy's solution
    bit for bit whenever gelsy does not rescale: while the largest entry of
    the matrix, and of a nonzero data block, lies in [1e-292, 1e292].
    """

    def __init__(self, matrix: np.ndarray, rank: int):
        m, n = matrix.shape
        self.shape, self.rank, self.mn = matrix.shape, rank, min(m, n)
        lwork = _gelsy_lwork(m, n, 1)
        self.qr, self.pivots, self.tau, _, _ = _lapack.dgeqp3(
            matrix, lwork=lwork - self.mn)
        self.rz, self.tau_z = self.qr[:rank], None
        if rank < n:
            self.rz, self.tau_z, _ = _lapack.dtzrzf(self.rz, lwork=lwork - 2 * self.mn)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """gelsy's solution for data (rows,) or a (rows, k) block."""
        m, n = self.shape
        block = np.asarray_chkfinite(rhs).reshape(m, -1)
        # each step gets what gelsy leaves it of its workspace: an undersized
        # dormqr workspace runs unblocked and moves the bits
        lwork = _gelsy_lwork(m, n, block.shape[1]) - 2 * self.mn
        qtb, _, _ = _lapack.dormqr("L", "T", self.qr[:, :self.mn], self.tau, block, lwork)
        y = np.zeros((n, block.shape[1]), order="F")
        # BLAS dtrsm as gelsy calls it; LAPACK's dtrtrs differs for one column
        y[:self.rank] = _blas.dtrsm(1.0, self.rz[:, :self.rank], qtb[:self.rank])
        if self.rank < n:
            y, _ = _lapack.dormrz(self.rz, self.tau_z, y, side="L", trans="T",
                                  lwork=lwork)
        x = np.empty_like(y)
        x[self.pivots - 1] = y
        return x if rhs.ndim == 2 else x[:, 0]


class MixedSolver:
    """Shared collocation matrix for one (possibly deformed) boundary.

    Dirichlet rows match values, Neumann rows match normal derivatives.  The
    matrix is assembled once and shared by every right-hand side.  Each
    ``solve`` is gelsy's pivoted-QR least-squares fit of a data set or a
    block of them, truncated at the relative threshold 1e-13.  The first
    solve is a gelsy call; it stores gelsy's ``rank`` and the columns gelsy
    kept, sorted, as ``kept``, and the re-solves of a t-ladder are assembled
    on the images of those columns' charges only.  The solves after it apply
    gelsy's factors, built once at that rank, with gelsy's bits.  The
    condition estimate is an SVD of the matrix, computed on first read.
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
        self.rank: int | None = None  # set by the first solve, with kept
        self.kept: np.ndarray | None = None
        self._factors: _GelsyFactors | None = None  # built by the second solve

    @functools.cached_property
    def condition_estimate(self) -> float:
        # the dgesdd call of scipy.linalg.svdvals, with its workspace
        m, n = self.matrix.shape
        work, _ = _lapack.dgesdd_lwork(m, n, compute_uv=0, full_matrices=0)
        _, sv, _, info = _lapack.dgesdd(np.asarray_chkfinite(self.matrix), compute_uv=0,
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
        if self.kept is None:
            coeff, self.rank, pivots = _gelsy(self.matrix, rhs.T)
            self.kept = np.sort(pivots[:self.rank] - 1)
        else:
            if self._factors is None:
                self._factors = _GelsyFactors(self.matrix, self.rank)
            coeff = self._factors.solve(rhs.T)
        fld = HarmonicField(self.charges, coeff)
        residuals = []
        for comp, data in zip(self.components, check_data):
            if comp.dirichlet:
                pred = fld.value(comp.check_nodes)
            else:
                pred = rowwise_dot(fld.gradient(comp.check_nodes), comp.check_normal)
            residuals.append(np.max(np.abs(pred - data), axis=-1))
        # one row of per-component residuals per data set
        n_sets = 1 if rhs.ndim == 1 else rhs.shape[0]
        per_set = np.reshape(np.transpose(residuals), (n_sets, len(residuals)))
        diags = tuple(SolveDiagnostics(float(row.max()), tuple(map(float, row)),
                                       int(self.rank), self.matrix.shape[1])
                      for row in per_set)
        total = max(d.residual for d in diags)
        if total > self.config.fail_threshold:
            raise GreensAccuracyError(
                f"check-node residual {total:.3e} exceeds "
                f"{self.config.fail_threshold:.1e} "
                f"(condition estimate {self.condition_estimate:.2e})")
        return fld, diags[0] if rhs.ndim == 1 else diags

    @functools.cached_property
    def _fourier_bases(self) -> list[tuple[FourierBasis, FourierBasis]]:
        """Per component, the interpolation from its grid nodes to its
        collocation and to its check angles."""
        return [(FourierBasis.at(len(c.nodes), c.colloc_thetas),
                 FourierBasis.at(len(c.nodes), CHECK_THETAS)) for c in self.components]

    def solve_nodal(self, nodal_per_component: list[np.ndarray]):
        """Fit grid-nodal data, (M,) or (k, M) per component, Fourier-interpolated
        to the collocation and check nodes by the solver's bases."""
        def interpolate(nodal, basis):
            if np.ndim(nodal) == 1:
                return basis(nodal)
            return np.stack([basis(row) for row in nodal])

        bases = self._fourier_bases
        col = [interpolate(nodal, b[0]) for nodal, b in zip(nodal_per_component, bases)]
        chk = [interpolate(nodal, b[1]) for nodal, b in zip(nodal_per_component, bases)]
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
    """Green's-function factory for one domain and boundary assignment
    (``base_solver`` shares the one of the undeformed boundary).

    ``charges`` are the base charges of each component before T_t, by
    default the domain's charge rings; re-solves pass another solver's
    ``kept_charges()``.
    """

    def __init__(self, domain: Domain, mixed: MixedBoundary,
                 config: GreensConfig | None = None, family=None, t: float = 0.0,
                 charges=None):
        self.domain = domain
        self.mixed = mixed
        self.config = config or GreensConfig()
        self.components = discretize_pushed(domain, mixed, family, t, self.config, charges)
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

    def kept_charges(self) -> list[np.ndarray]:
        """Per component, the charges of the columns the first solve kept, in
        their original order (every charge before the first solve)."""
        keep = np.zeros(len(self.solver.charges), dtype=bool)
        keep[slice(None) if self.solver.kept is None else self.solver.kept] = True
        splits = np.cumsum([len(c.charges) for c in self.components])[:-1]
        return [c.charges[k] for c, k in zip(self.components, np.split(keep, splits))]


def base_solver(domain: Domain, mixed: MixedBoundary,
                config: GreensConfig | None = None) -> GreensSolver:
    """The domain's one solver of its undeformed boundary under (mixed, config).

    Built on the first request and kept in the domain's memo, so every route
    and case on that boundary shares its matrix, its first gelsy solve and
    the factors of the solves after it.
    """
    config = config or GreensConfig()
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
    of reports comes back).  The probes are solved at once, and
    their correctors and traces are evaluated once for every solution.
    """
    specs = list(z_spec) if isinstance(z_spec, (list, tuple)) else [z_spec]
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    solver = base_solver(domain, mixed, config)
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
