import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapelab import geometry as geo
from shapelab import greens as gr
from shapelab import hadamard as hd
from shapelab import perturbation as pert
from shapelab._linalg import OpenBLAS
from shapelab.cases import CaseSettings, build_registry
from shapelab.integrands import IntegrandSpec

TWO_PI = 2.0 * np.pi
# the charge count of the solves that name none
CONFIG = gr.GreensConfig(n_charges=128)


@pytest.fixture(scope="module")
def disk():
    return geo.Domain(geo.disk(1.0), m=128)


@pytest.fixture(scope="module")
def annulus():
    return geo.Domain(geo.annulus(0.5, 1.0), m=128)


@pytest.fixture(scope="module")
def disk_solver(disk):
    return gr.GreensSolver(disk, geo.all_dirichlet(1), CONFIG)


@pytest.fixture(scope="module")
def annulus_solver(annulus):
    return gr.GreensSolver(annulus, geo.MixedBoundary(("dirichlet", "neumann")), CONFIG)


class TestFundamentalSolution:
    def test_unit_distance_vanishes(self):
        assert gr.fundamental_solution(np.array([[1.0, 0.0]]),
                                       np.array([[0.0, 0.0]]))[0, 0] == 0.0

    def test_inverse_e_distance(self):
        val = gr.fundamental_solution(np.array([[np.exp(-1.0), 0.0]]),
                                      np.array([[0.0, 0.0]]))[0, 0]
        assert val == pytest.approx(1.0 / TWO_PI, abs=1e-14)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (5, 2))
        src = rng.uniform(2, 3, (3, 2))
        grad = gr.fundamental_gradient(pts, src)
        h = 1e-6
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            fd = (gr.fundamental_solution(pts + dp, src)
                  - gr.fundamental_solution(pts - dp, src)) / (2 * h)
            np.testing.assert_allclose(grad[:, :, k], fd, atol=1e-8)

    def test_pole_rejected(self):
        with pytest.raises(gr.GreensError):
            gr.fundamental_solution(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("kernel", [gr.fundamental_solution,
                                        gr.fundamental_gradient,
                                        gr.fundamental_hessian])
    def test_coincident_source_rejected_by_every_kernel(self, kernel):
        with pytest.raises(gr.GreensError, match="coincides"):
            kernel(np.array([[0.1, 0.2]]), np.array([[0.1, 0.2]]))


def _einsum_offsets(points, sources):
    diff = points[:, None, :] - sources[None, :, :]
    return diff, np.einsum("nki,nki->nk", diff, diff)


class TestKernelLayer:
    """The (N, K) kernels against the (N, K, 2) einsum forms they replaced."""

    def test_kernels_equal_einsum_forms_bit_for_bit(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (300, 2))
        src = rng.uniform(-3, 3, (70, 2))
        diff, r2 = _einsum_offsets(pts, src)
        np.testing.assert_array_equal(gr.fundamental_solution(pts, src),
                                      -0.5 * gr.INV_2PI * np.log(r2))
        np.testing.assert_array_equal(gr.fundamental_gradient(pts, src),
                                      -gr.INV_2PI * diff / r2[..., None])
        hessian = gr.INV_2PI * (2.0 * np.einsum("nki,nkj->nkij", diff, diff)
                                / r2[..., None, None] ** 2
                                - np.eye(2)[None, None] / r2[..., None, None])
        np.testing.assert_array_equal(gr.fundamental_hessian(pts, src), hessian)

    def test_annulus_collocation_matrix_equals_einsum_form(self, annulus, annulus_solver):
        # a base solver's matrix holds its QR factors; a solver on the same
        # charges, given as charges, keeps its matrix unfactored until it solves
        solver = gr.MixedSolver(gr.discretize_pushed(
            annulus, annulus_solver.mixed, None, 0.0, annulus_solver.config,
            [c.charges for c in annulus_solver.components]), annulus_solver.config)
        rows = []
        for comp in solver.components:
            diff, r2 = _einsum_offsets(comp.colloc.nodes, solver.charges)
            if comp.dirichlet:
                rows.append(-0.5 * gr.INV_2PI * np.log(r2))
            else:
                grad = -gr.INV_2PI * diff / r2[..., None]
                rows.append(np.einsum("nki,ni->nk", grad, comp.colloc.normal))
        assert not solver.components[1].dirichlet
        np.testing.assert_array_equal(solver.matrix, np.vstack(rows))

    @pytest.mark.parametrize("which", ["disk", "annulus"])
    def test_complex_gradient_matches_einsum_sum(self, request, which):
        domain = request.getfixturevalue(which)
        solver = request.getfixturevalue(f"{which}_solver")
        field = solver.solve(np.array([0.1, 0.7])).corrector
        nodes = domain.interior().nodes
        assert len(nodes) == 4096  # the m = 128 rule: 32 radii x 128 angles
        terms = gr.fundamental_gradient(nodes, field.charges)
        reference = np.einsum("nki,k->ni", terms, field.coefficients)
        # rounding bound of the reordered sum, point by point
        bound = 16 * np.finfo(float).eps * np.einsum(
            "k,nk->n", np.abs(field.coefficients), np.linalg.norm(terms, axis=-1))
        gap = np.max(np.abs(field.gradient(nodes) - reference), axis=1)
        assert np.all(gap <= bound)

    def test_complex_gradient_rejects_a_charge(self, disk_solver):
        field = disk_solver.solve(np.array([0.3, 0.0])).corrector
        with pytest.raises(gr.GreensError, match="coincides"):
            field.gradient(field.charges[3:4])


class TestDiskSolve:
    def test_matches_image_charge_formula(self, disk_solver):
        y = np.array([0.3, 0.0])
        ev = disk_solver.solve(y)
        rng = np.random.default_rng(1)
        count = 0
        while count < 20:
            r, a = 0.85 * np.sqrt(rng.uniform()), rng.uniform(0, TWO_PI)
            x = np.array([r * np.cos(a), r * np.sin(a)])
            if np.linalg.norm(x - y) < 0.1:
                continue
            assert abs(ev.value(x)[0] - gr.disk_greens(x, y)) < 1e-8
            count += 1

    def test_center_pole_radial_form(self, disk_solver):
        ev = disk_solver.solve(np.array([0.0, 0.0]))
        x = np.array([[0.4, 0.3]])
        assert ev.value(x)[0] == pytest.approx(
            -np.log(np.hypot(0.4, 0.3)) / TWO_PI, abs=1e-10)
        np.testing.assert_allclose(ev.normal_trace(0), -1.0 / TWO_PI, atol=1e-10)

    def test_poisson_kernel_trace(self, disk, disk_solver):
        y = np.array([0.3, 0.0])
        ev = disk_solver.solve(y)
        kernel = gr.disk_poisson_kernel(disk.grids[0].thetas, y)
        rel = np.abs(-ev.normal_trace(0) - kernel) / kernel
        assert rel.max() < 1e-7

    def test_symmetry(self, disk_solver):
        x, y = np.array([-0.2, 0.5]), np.array([0.3, 0.0])
        assert abs(disk_solver.solve(y).value(x)[0]
                   - disk_solver.solve(x).value(y)[0]) < 1e-7

    def test_corrector_mean_value_property(self, disk_solver):
        ev = disk_solver.solve(np.array([0.3, 0.0]))
        center = np.array([0.1, -0.2])
        th = TWO_PI * np.arange(256) / 256
        ring = center + 0.3 * np.stack([np.cos(th), np.sin(th)], axis=-1)
        assert abs(ev.corrector_value(ring).mean()
                   - ev.corrector_value(center[None, :])[0]) < 1e-8

    def test_check_node_residual(self, disk_solver):
        ev = disk_solver.solve(np.array([0.3, 0.0]))
        assert ev.diagnostics.residual < 1e-7

    def test_exterior_pole_rejected(self, disk_solver):
        with pytest.raises(gr.GreensError, match="interior"):
            disk_solver.solve(np.array([1.4, 0.0]))


def mixed_annulus_greens(x, y, a=0.5, b=1.0, n_modes=400):
    """Classical series oracle: Dirichlet at |x| = b, zero flux at |x| = a.

    The corrector is a log/power Fourier series in polar coordinates; each
    mode solves a 2x2 system against the multipole expansion of the log
    kernel about the origin.  Fully independent of the collocation solver.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    r, phi = np.hypot(*x), np.arctan2(x[1], x[0])
    ry, phy = np.hypot(*y), np.arctan2(y[1], y[0])
    value = -np.log(np.linalg.norm(x - y)) / TWO_PI + np.log(b) / TWO_PI
    for n in range(1, n_modes + 1):
        rhs = np.array([-(ry / b) ** n / (TWO_PI * n),
                        -(a ** (n - 1) / ry ** n) / TWO_PI])
        system = np.array([[b ** n, b ** (-n)],
                           [n * a ** (n - 1), -n * a ** (-n - 1)]])
        cn, dn = np.linalg.solve(system, rhs)
        value += (cn * r ** n + dn * r ** (-n)) * np.cos(n * (phi - phy))
    return value


class TestAnnulusMixed:
    def test_matches_series_oracle(self, annulus_solver):
        y = np.array([-0.7, -0.1])
        ev = annulus_solver.solve(y)
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 20:
            r, t = rng.uniform(0.55, 0.95), rng.uniform(0, TWO_PI)
            x = np.array([r * np.cos(t), r * np.sin(t)])
            if np.linalg.norm(x - y) < 0.1:
                continue
            assert abs(ev.value(x)[0] - mixed_annulus_greens(x, y)) < 1e-8
            checked += 1

    def test_dirichlet_flux_balance(self, annulus_solver):
        ev = annulus_solver.solve(np.array([0.0, 0.72]))
        flux = np.dot(annulus_solver.components[0].grid.weights, ev.normal_trace(0))
        assert abs(flux + 1.0) < 1e-6

    def test_neumann_trace_vanishes(self, annulus_solver):
        ev = annulus_solver.solve(np.array([0.0, 0.72]))
        assert np.max(np.abs(ev.normal_trace(1))) < 1e-7
        assert ev.diagnostics.residual < 1e-7

    def test_symmetry(self, annulus_solver):
        x, y = np.array([0.0, 0.75]), np.array([-0.7, -0.1])
        assert abs(annulus_solver.solve(y).value(x)[0]
                   - annulus_solver.solve(x).value(y)[0]) < 1e-7

    def test_tangential_trace_matches_spectral(self, annulus, annulus_solver):
        ev = annulus_solver.solve(np.array([0.0, 0.72]))
        nodal = ev.boundary_values(1)
        spectral = geo.tangential_grad(annulus.grids[1], nodal)
        np.testing.assert_allclose(ev.tangential_trace(1), spectral, atol=1e-7)

    def test_charge_doubling_improves_residual(self, annulus):
        mixedb = geo.MixedBoundary(("dirichlet", "neumann"))
        y = np.array([0.0, 0.72])
        residuals = {}
        for n in (32, 64):
            cfg = gr.GreensConfig(n_charges=n, fail_threshold=1.0)
            residuals[n] = gr.GreensSolver(annulus, mixedb, cfg).solve(y).diagnostics.residual
        assert residuals[64] <= 0.1 * residuals[32] or residuals[64] < 1e-9


class TestRepresentation:
    def test_constant_state_on_annulus(self, annulus):
        rep, = gr.representation_check(
            annulus, geo.MixedBoundary(("dirichlet", "neumann")),
            [IntegrandSpec.constant(1.0)], np.array([[0.0, 0.7], [0.6, 0.3]]), CONFIG)
        assert rep.max_error < 1e-7

    def test_harmonic_solution_on_disk(self, disk):
        rep, = gr.representation_check(disk, geo.all_dirichlet(1),
                                       [IntegrandSpec.from_expression("x1**2 - x2**2")],
                                       np.array([[0.3, 0.2], [-0.4, 0.1]]), CONFIG)
        assert rep.max_error < 1e-6

    def test_poisson_solution_with_volume_term(self, disk):
        rep, = gr.representation_check(disk, geo.all_dirichlet(1),
                                       [IntegrandSpec.from_expression("(x1**2 + x2**2)/4")],
                                       np.array([[0.3, 0.2], [-0.4, 0.1]]), CONFIG)
        assert rep.max_error < 1e-5

    def test_nonconstant_forcing(self, disk):
        rep, = gr.representation_check(disk, geo.all_dirichlet(1),
                                       [IntegrandSpec.from_expression("x1**4")],
                                       np.array([[0.3, 0.2]]), CONFIG)
        assert rep.max_error < 1e-4

    def test_star_domain_harmonic_solution(self):
        dom = geo.Domain(geo.star_domain(1.0, 0.2, 3), m=128)
        rep, = gr.representation_check(dom, geo.all_dirichlet(1),
                                       [IntegrandSpec.from_expression("x1**2 - x2**2")],
                                       np.array([[0.2, 0.1], [-0.3, 0.25]]), CONFIG)
        assert rep.max_error < 1e-6


class TestPerturbedGreens:
    def test_base_components_are_the_domain_grids(self, annulus_solver, annulus):
        # the undeformed boundary's grid point sets are the domain's own
        for comp, grid in zip(annulus_solver.components, annulus.grids):
            assert comp.grid is grid

    def test_moved_point_sets_are_the_pushed_frames(self, annulus_solver, annulus):
        # a moved solver's grid, collocation and check sets are pushed_frame's
        fam, t = pert.FlowFamily(pert.shear(0.5)), 0.05
        moved = annulus_solver.moved(fam, t)
        for curve, comp in zip(annulus.curve.components, moved.components):
            for points in (comp.grid, comp.colloc, comp.check):
                want = geo.pushed_frame(curve, points.thetas, fam, t)
                for name in ("thetas", "nodes", "tangent", "normal", "speed", "weights"):
                    np.testing.assert_array_equal(getattr(points, name), getattr(want, name))

    def test_solvers_on_grids_of_one_size_share_their_fourier_bases(self, annulus_solver):
        # two base solvers of one (m, n_charges) on different domains, and a
        # moved one, hold one pair, which is the pair every component's own
        # collocation and check angles give, bit for bit
        star = gr.GreensSolver(geo.Domain(geo.star_domain(1.0, 0.2, 3), m=128),
                               geo.all_dirichlet(1), CONFIG)
        moved = annulus_solver.moved(pert.TaylorFamily(pert.dilation()), 0.05)
        bases = annulus_solver.solver.fourier_bases
        for other in (star, moved):
            assert all(a is b for a, b in zip(other.solver.fourier_bases, bases))
        for comp in star.components + moved.components:
            for basis, points in zip(bases, (comp.colloc, comp.check)):
                want = geo.FourierBasis.at(comp.grid.size, points.thetas)
                for name in ("cos", "sin", "nyquist"):
                    np.testing.assert_array_equal(getattr(basis, name), getattr(want, name))
                    assert not getattr(basis, name).flags.writeable

    def test_zero_deformation_matches_base(self, disk):
        mixedb = geo.all_dirichlet(1)
        fam = pert.TaylorFamily(pert.dilation())
        y = np.array([0.0, 0.4])
        base = gr.GreensSolver(disk, mixedb, CONFIG).solve(y)
        moved = gr.GreensSolver(disk, mixedb, CONFIG, family=fam, t=0.0).solve(y)
        x = np.array([[0.3, -0.1]])
        assert base.value(x)[0] == pytest.approx(moved.value(x)[0], abs=1e-12)

    def test_dilated_disk_scaling_identity(self, disk):
        fam = pert.TaylorFamily(pert.dilation())
        t, y = 0.05, np.array([0.0, 0.4])
        ev = gr.GreensSolver(disk, geo.all_dirichlet(1), CONFIG, family=fam, t=t).solve(y)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, size=2)
            if min(np.linalg.norm(x - y), np.linalg.norm(x)) < 0.15:
                continue
            assert abs(ev.value(x)[0] - gr.disk_greens(x / (1 + t), y / (1 + t))) < 1e-7

    def test_zero_velocity_family_is_bit_identical_across_t(self):
        # one discretization path for every t: a family that moves nothing
        # must not move N, not even by rounding amplified through the solve
        star = geo.Domain(geo.star_domain(1.0, 0.2, 3), m=128)
        mixedb, cfg = geo.all_dirichlet(1), gr.GreensConfig(n_charges=96)
        fam = pert.TaylorFamily(pert.zero_field())
        y, x = np.array([0.0, 0.4]), np.array([[0.3, 0.0]])
        base = gr.GreensSolver(star, mixedb, cfg).solve(y).value(x)[0]
        for t in (0.0, 1e-3, -1e-3):
            moved = gr.GreensSolver(star, mixedb, cfg, family=fam, t=t).solve(y)
            assert moved.value(x)[0] == base

    def test_rotation_invariance_center_pole(self, disk):
        fam = pert.FlowFamily(pert.rotation())
        y = np.array([0.0, 0.0])
        base = gr.GreensSolver(disk, geo.all_dirichlet(1), CONFIG).solve(y)
        moved = gr.GreensSolver(disk, geo.all_dirichlet(1), CONFIG, family=fam, t=0.1).solve(y)
        x = np.array([[0.35, 0.2]])
        assert abs(base.value(x)[0] - moved.value(x)[0]) < 1e-9


class TestDiagnostics:
    def test_condition_estimate_reported(self, disk_solver):
        assert disk_solver.solver.condition_estimate > 1e6

    def test_condition_estimate_is_the_singular_value_ratio(self):
        # the truncated ellipse, solved, so its matrix holds its QR factors:
        # the estimate from R against the SVD of a fresh assembly of its
        # kept columns.  Both are 9.3e12, so their smallest singular values
        # may part by eps times that, 2.1e-3 relative; they read 8.0e-5 apart
        _, solver = _block_solver("ellipse", 128, 96)
        solver.solve(BLOCK_POLES["ellipse"][0])
        fresh = gr.MixedSolver(solver.components, solver.config).matrix
        assert fresh.shape == (192, 82)
        sv = scipy.linalg.svdvals(fresh)
        rounding = np.finfo(float).eps * sv[0] / sv[-1]
        assert solver.solver.condition_estimate == pytest.approx(sv[0] / sv[-1], rel=rounding)

    def test_fd_route_computes_no_svd(self, disk, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dgesdd called")

        monkeypatch.setattr(gr._lapack, "dgesdd", refuse)
        fam = pert.TaylorFamily(pert.dilation())
        solver = gr.GreensSolver(disk, geo.all_dirichlet(1), CONFIG)
        result = hd.delta_n_fd(solver, fam, np.array([0.3, 0.0]), np.array([0.0, 0.4]))
        assert np.isfinite(result.value)
        with pytest.raises(AssertionError, match="dgesdd"):  # the patch is the one read
            solver.solver.condition_estimate

    def test_hard_failure_raises_with_condition(self, disk):
        cfg = gr.GreensConfig(n_charges=8, fail_threshold=1e-10)
        with pytest.raises(gr.GreensAccuracyError, match="condition"):
            gr.GreensSolver(disk, geo.all_dirichlet(1), cfg).solve(np.array([0.3, 0.0]))

    def test_every_collocation_solve_is_gated_by_its_check_data(self, disk):
        cfg = gr.GreensConfig(n_charges=8, fail_threshold=1e-10)
        solver = gr.GreensSolver(disk, geo.all_dirichlet(1), cfg)
        col, chk = solver.corrector_data(np.array([0.3, 0.0]))
        with pytest.raises(TypeError, match="check_data"):
            solver.solver.solve(col)  # no solve skips the residual gate
        with pytest.raises(gr.GreensAccuracyError):
            solver.solver.solve(col, check_data=chk)


class TestConfig:
    """A config that cannot give a valid fit fails when it is built."""

    @pytest.mark.parametrize("n_charges", [0, -3])
    def test_a_ring_without_charges_is_rejected(self, n_charges):
        with pytest.raises(gr.GreensError, match="n_charges"):
            gr.GreensConfig(n_charges=n_charges)

    @pytest.mark.parametrize("n_charges", [True, np.bool_(True), 96.5, 96.0, "96", None])
    def test_a_charge_count_that_is_not_an_integer_is_rejected(self, n_charges):
        with pytest.raises(gr.GreensError,
                           match=re.escape(f"n_charges must be an integer, not {n_charges!r}")):
            gr.GreensConfig(n_charges=n_charges)

    def test_a_charge_count_is_required_and_a_numpy_integer_is_one(self):
        with pytest.raises(TypeError, match="n_charges"):
            gr.GreensConfig()
        config = gr.GreensConfig(n_charges=np.int64(96))
        assert config == gr.GreensConfig(n_charges=96) and config.n_charges == 96

    @pytest.mark.parametrize("threshold", [0.0, -1e-4, np.nan])
    def test_a_residual_gate_that_passes_nothing_is_rejected(self, threshold):
        with pytest.raises(gr.GreensError, match="fail_threshold"):
            gr.GreensConfig(n_charges=128, fail_threshold=threshold)

    def test_the_bounds_themselves_are_kept(self):
        config = gr.GreensConfig(n_charges=1, fail_threshold=np.inf)
        assert (config.n_charges, config.fail_threshold) == (1, np.inf)


def _fresh_python(code: str) -> str:
    """The standard output of ``code`` in a fresh interpreter that finds shapelab."""
    src = Path(gr.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


# the handle's routines, or scipy's modules where numpy bundles no OpenBLAS
ON_OPENBLAS = isinstance(gr._lapack, OpenBLAS)
needs_openblas = pytest.mark.skipif(not ON_OPENBLAS,
                                    reason="numpy bundles no ILP64 OpenBLAS library")
# subprocess prologues, run before shapelab is imported: one finds no bundled
# OpenBLAS beside numpy, the other finds one that does not load
HIDDEN = ("import glob; _glob = glob.glob\n"
          "glob.glob = lambda p, *a, **k: [] if 'openblas' in p else _glob(p, *a, **k)\n")
UNLOADABLE = ("import ctypes; _cdll = ctypes.CDLL\n"
              "def _refuse(name, *a, **k):\n"
              "    if 'openblas' in str(name):\n        raise OSError(f'{name}: refused')\n"
              "    return _cdll(name, *a, **k)\n"
              "ctypes.CDLL = _refuse\n")


def _whole_matrix(kind, m, n_charges):
    """The collocation matrix on every ring charge, Fortran-ordered, unfactored."""
    domain = geo.Domain(CURVES[kind], m=m)
    config = gr.GreensConfig(n_charges=n_charges)
    components = gr.discretize_pushed(domain, MIXED[kind], None, 0.0, config,
                                      domain.charge_rings(n_charges))
    return gr.MixedSolver(components, config).matrix


class TestLinalgHandles:
    """greens takes its LAPACK and BLAS routines from the OpenBLAS library
    that numpy's wheel bundles, through one ctypes handle, and from scipy's
    compiled modules only where numpy bundles none."""

    @needs_openblas
    def test_cli_import_loads_no_scipy_module_and_serves_both_names_from_one_handle(self):
        out = _fresh_python(
            "import sys, shapelab.cli; from shapelab import greens as gr, _linalg; "
            "print(type(gr._lapack).__name__, gr._lapack is gr._blas, "
            "gr._lapack.path == _linalg.bundled_openblas(), sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m in ('numpy.f2py', 'numpy.testing')))")
        assert out == "OpenBLAS True True []"

    # the registry's boundaries (m = 128, 96 charges: 192 x 96 and 384 x 192,
    # and the rank-deficient 1 x 0.5 ellipse, whose pivots dgeqp3 decides)
    # and green-variations' (m = 256, 192 charges: 384 x 192 and 768 x 384)
    @needs_openblas
    @pytest.mark.parametrize("kind,m,n_charges", [
        ("disk", 128, 96), ("annulus", 128, 96), ("ellipse", 128, 96), ("disk", 256, 192),
        ("annulus", 256, 192)])
    def test_every_routine_equals_scipy_bit_for_bit(self, kind, m, n_charges):
        la, bl = scipy.linalg.lapack, scipy.linalg.blas
        matrix = _whole_matrix(kind, m, n_charges)
        rows, n = matrix.shape
        nb = min(gr.QR_BLOCK, n)
        qr, t, info = gr._lapack.dgeqrt(nb, matrix.copy(order="F"), overwrite_a=1)
        want_qr, want_t, _ = la.dgeqrt(nb, matrix)
        assert info == 0
        np.testing.assert_array_equal(qr, want_qr)
        np.testing.assert_array_equal(t, want_t)
        block = np.stack([np.cos(np.arange(rows) * (j + 1.0)) for j in range(3)], axis=1)
        for trans in ("T", "N"):
            got, info = gr._lapack.dgemqrt(qr, t, block, side="L", trans=trans)
            assert info == 0
            np.testing.assert_array_equal(got, la.dgemqrt(want_qr, want_t, block, trans=trans)[0])
        qtb = gr._lapack.dgemqrt(qr, t, block, side="L", trans="T")[0]
        for trans_a in (0, 1):  # the triangle passed as the view qr[:n], lda = rows
            np.testing.assert_array_equal(
                gr._blas.dtrsm(1.0, qr[:n], qtb[:n], trans_a=trans_a),
                bl.dtrsm(1.0, want_qr[:n], qtb[:n], trans_a=trans_a))
        triangle = np.tril(qr[:n].T).T
        lwork = 2 * n + (n + 1) * gr.QR_BLOCK
        got = gr._lapack.dgeqp3(triangle.copy(order="F"), overwrite_a=1, lwork=lwork)
        want = la.dgeqp3(triangle, lwork=lwork)
        for index in (0, 1, 2, 4):  # R, the pivots, tau and info
            np.testing.assert_array_equal(got[index], want[index])
        if kind == "ellipse":  # R is rank-deficient: the pivots decide the kept columns
            diagonal = np.abs(np.diagonal(got[0]))
            assert np.count_nonzero(diagonal > gr.KEEP_CUT * diagonal[0]) == 82
        work = gr._lapack.dgesdd_lwork(rows, n, compute_uv=0, full_matrices=0)
        assert work == la.dgesdd_lwork(rows, n, compute_uv=0, full_matrices=0)
        np.testing.assert_array_equal(
            gr._lapack.dgesdd(matrix, compute_uv=0, full_matrices=0, lwork=int(work[0]))[1],
            la.dgesdd(matrix, compute_uv=0, full_matrices=0, lwork=int(work[0]))[1])

    @needs_openblas
    def test_wrong_shapes_and_block_sizes_raise_value_errors_without_a_crash(self):
        # in a fresh process, so that a write out of bounds would show as a crash
        out = _fresh_python("""
import numpy as np
from shapelab import greens as gr
la = gr._lapack
a = np.asfortranarray(np.arange(1.0, 49.0).reshape(8, 6) + np.eye(8, 6))
qr, t, _ = la.dgeqrt(3, a.copy(order="F"))
c = np.ones((8, 2))
frozen = a.copy(order="F")
frozen.flags.writeable = False
calls = {
    "dgeqrt nb 0": lambda: la.dgeqrt(0, a),
    "dgeqrt nb 7": lambda: la.dgeqrt(7, a),
    "dgeqrt 1-D": lambda: la.dgeqrt(2, a[:, 0]),
    "dgeqrt C order": lambda: la.dgeqrt(2, np.ascontiguousarray(a), overwrite_a=1),
    "dgeqrt float32": lambda: la.dgeqrt(2, a.astype(np.float32, order="F"), overwrite_a=1),
    "dgeqrt read-only": lambda: la.dgeqrt(2, frozen, overwrite_a=1),
    "dgemqrt v rows": lambda: la.dgemqrt(qr[:7], t, c, side="L", trans="T"),
    "dgemqrt c rows": lambda: la.dgemqrt(qr, t, np.ones((7, 2)), side="L", trans="T"),
    "dgemqrt t columns": lambda: la.dgemqrt(qr, t[:, :5], c, side="L", trans="T"),
    "dgemqrt block 7": lambda: la.dgemqrt(qr, np.zeros((7, 6), order="F"), c, trans="T"),
    "dgemqrt trans": lambda: la.dgemqrt(qr, t, c, side="L", trans="C"),
    "dgemqrt 1-D": lambda: la.dgemqrt(qr, t, np.ones(8), side="L", trans="T"),
    "dgeqp3 lwork": lambda: la.dgeqp3(a.copy(order="F"), overwrite_a=1, lwork=18),
    "dgeqp3 C order": lambda: la.dgeqp3(np.ascontiguousarray(a), overwrite_a=1, lwork=64),
    "dgesdd lwork 0": lambda: la.dgesdd(a, compute_uv=0, full_matrices=0, lwork=0),
    "dgesdd lwork 1": lambda: la.dgesdd(a, compute_uv=0, full_matrices=0, lwork=1),
    "dgesdd vectors": lambda: la.dgesdd(a, compute_uv=1, full_matrices=0, lwork=512),
    "dtrsm a rows": lambda: gr._blas.dtrsm(1.0, qr[:5], c[:6]),
    "dtrsm a order": lambda: gr._blas.dtrsm(1.0, qr[:6].T, c[:6]),
    "dtrsm 1-D": lambda: gr._blas.dtrsm(1.0, qr[:6], c[:6, 0]),
}
for name, call in calls.items():
    try:
        call()
    except ValueError as exc:
        print(name, "|", exc)
    else:
        print(name, "| no error")
""")
        # OpenBLAS's xerbla prints its own line for the illegal lwork
        lines = dict(line.split(" | ", 1) for line in out.splitlines() if " | " in line)
        assert len(lines) == 20 and "no error" not in lines.values(), out
        for name, message in lines.items():
            assert message.startswith(name.split()[0] + ": "), name
        assert lines["dgesdd lwork 1"] == "dgesdd: illegal value in argument 12 (lwork)"
        assert "argument nb = 7" in lines["dgeqrt nb 7"]
        assert "column-major" in lines["dtrsm a order"]
        assert "read-only" in lines["dgeqrt read-only"]

    @pytest.mark.parametrize("hide", [HIDDEN, UNLOADABLE], ids=["hidden", "unloadable"])
    def test_without_the_bundled_library_scipy_serves_a_row_with_the_same_bits(self, hide):
        # with the scipy modules serving, the same registry rows read the same bits
        row = ("from shapelab.cases import CaseSettings, build_registry\n"
               "print(*[case.run(CaseSettings(seed=7)).err.hex() for case in build_registry() "
               "if case.case_id in ('greens-symmetry', 'hadamard-delta-n-triangle-annulus')])")
        served = _fresh_python(
            "import sys\n" + hide + "from shapelab import greens as gr\n"
            "print(gr._lapack.__name__, gr._blas.__name__, 'scipy.linalg' in sys.modules)\n"
            + row).splitlines()
        assert served[0] == "scipy.linalg._flapack scipy.linalg._fblas False"
        assert served[1] == _fresh_python(row)

    def test_without_either_library_an_import_error_names_both(self):
        out = _fresh_python(
            "import sys; sys.modules['scipy'] = None\n" + HIDDEN
            + "try:\n    import shapelab.greens\nexcept ImportError as exc:\n"
            "    print(type(exc).__name__, '|', exc)")
        assert out.startswith("ImportError | no LAPACK for shapelab.greens: numpy bundles no "
                              "ILP64 OpenBLAS"), out
        assert "scipy's LAPACK modules do not load" in out


# ---------------------------------------------------------------------------
# Block layer: one solve per batch, one kernel matrix per point set
# ---------------------------------------------------------------------------

BLOCK_POLES = {"disk": np.array([[0.3, 0.0], [0.0, 0.4], [-0.5, 0.2], [0.1, -0.6]]),
               "annulus": np.array([[0.0, 0.75], [-0.74, -0.1], [0.6, 0.3], [0.2, -0.7]]),
               "ellipse": np.array([[0.3, 0.0], [0.0, 0.2], [-0.5, 0.1], [0.1, -0.25]])}
MIXED = {"disk": geo.all_dirichlet(1), "annulus": geo.MixedBoundary(("dirichlet", "neumann")),
         "ellipse": geo.all_dirichlet(1)}
CURVES = {"disk": geo.disk(1.0), "annulus": geo.annulus(0.5, 1.0),
          "ellipse": geo.elliptical_domain(1.0, 0.5)}


def _block_solver(kind, m, n_charges):
    domain = geo.Domain(CURVES[kind], m=m)
    return domain, gr.GreensSolver(domain, MIXED[kind], gr.GreensConfig(n_charges=n_charges))


class TestBlockLayer:
    @pytest.mark.parametrize("kind", ["disk", "annulus"])
    def test_block_solves_are_bit_identical_on_192_or_more_columns(self, kind):
        # 384x192 disk and 768x384 annulus, both at full rank
        _, solver = _block_solver(kind, 256, 192)
        assert solver.solver.matrix.shape[1] >= 192
        block = solver.solve(BLOCK_POLES[kind])
        fam = pert.TaylorFamily(pert.translation(1.0, 0.0))
        udot, udot_diags = hd.delta_n_bvp(solver, fam, block)
        for j, pole in enumerate(BLOCK_POLES[kind]):
            single = solver.solve(pole)
            np.testing.assert_array_equal(block.corrector.coefficients[:, j],
                                          single.corrector.coefficients)
            assert block.diagnostics[j] == single.diagnostics
            field, diag = hd.delta_n_bvp(solver, fam, single)
            np.testing.assert_array_equal(udot.coefficients[:, j], field.coefficients)
            assert udot_diags[j] == diag

    def test_block_solves_on_the_96_column_disk_agree_to_rounding(self):
        domain, solver = _block_solver("disk", 128, 96)
        assert solver.solver.matrix.shape == (192, 96)
        block = solver.solve(BLOCK_POLES["disk"])
        nodes = domain.interior().nodes
        values = block.value(nodes)
        for j, pole in enumerate(BLOCK_POLES["disk"]):
            single = solver.solve(pole)
            assert block.diagnostics[j].n_unknowns == single.diagnostics.n_unknowns == 96
            assert np.max(np.abs(values[j] - single.value(nodes))) <= 1e-14

    @pytest.mark.parametrize("kind", ["disk", "annulus"])
    def test_block_evaluations_are_bit_identical_to_single_fields(self, request, kind):
        # one matrix-vector product per column; a single gemm moves the bits
        domain = request.getfixturevalue(kind)
        solver = request.getfixturevalue(f"{kind}_solver")
        block = solver.solve(BLOCK_POLES[kind][:3])
        singles = [block[j] for j in range(3)]  # taken before any trace is cached
        nodes = domain.interior().nodes
        values, gradients = block.value(nodes), block.gradient(nodes)
        hessians = block.hessian(nodes[:200])
        correctors = block.corrector.value(nodes)
        for j, single in enumerate(singles):
            np.testing.assert_array_equal(values[j], single.value(nodes))
            np.testing.assert_array_equal(gradients[j], single.gradient(nodes))
            np.testing.assert_array_equal(hessians[j], single.hessian(nodes[:200]))
            np.testing.assert_array_equal(correctors[j], single.corrector_value(nodes))
            for i in range(len(solver.components)):
                np.testing.assert_array_equal(block.normal_trace(i)[j], single.normal_trace(i))
                np.testing.assert_array_equal(block.tangential_trace(i)[j],
                                              single.tangential_trace(i))
                np.testing.assert_array_equal(block.boundary_values(i)[j],
                                              single.boundary_values(i))

    def test_traces_are_cached_read_only_and_carried_by_columns(self, annulus_solver):
        block = annulus_solver.solve(BLOCK_POLES["annulus"][:2])
        trace = block.normal_trace(0)
        assert block.normal_trace(0) is trace
        assert not trace.flags.writeable
        np.testing.assert_array_equal(block[1].normal_trace(0), trace[1])
        np.testing.assert_array_equal(block[::-1].normal_trace(0), trace[::-1])

    def test_one_pole_and_a_block_of_one_agree(self, disk, disk_solver):
        pole = np.array([0.3, 0.0])
        single, block = disk_solver.solve(pole), disk_solver.solve(pole[None, :])
        assert isinstance(block.diagnostics, tuple) and len(block.diagnostics) == 1
        nodes = disk.interior().nodes
        np.testing.assert_array_equal(block.value(nodes)[0], single.value(nodes))
        assert block.diagnostics[0] == single.diagnostics

    def test_a_block_fails_on_its_worst_column(self, disk):
        cfg = gr.GreensConfig(n_charges=8, fail_threshold=1e-10)
        with pytest.raises(gr.GreensAccuracyError, match="condition"):
            gr.GreensSolver(disk, geo.all_dirichlet(1), cfg).solve(BLOCK_POLES["disk"])

    def test_exterior_pole_in_a_block_rejected(self, disk_solver):
        with pytest.raises(gr.GreensError, match="interior"):
            disk_solver.solve(np.array([[0.3, 0.0], [1.4, 0.0]]))

    def test_representation_of_several_solutions_matches_one_at_a_time(self, disk):
        probes = np.array([[0.3, 0.2], [-0.4, 0.1]])
        specs = [IntegrandSpec.from_expression(e) for e in ("1", "x1**2 - x2**2")]
        reports = gr.representation_check(disk, geo.all_dirichlet(1), specs, probes, CONFIG)
        for spec, rep in zip(specs, reports):
            alone, = gr.representation_check(disk, geo.all_dirichlet(1), [spec], probes, CONFIG)
            np.testing.assert_allclose(rep.reconstructed, alone.reconstructed,
                                       rtol=0, atol=1e-14)
            assert rep.max_error < 1e-6


class TestKeptColumns:
    """A base solver keeps the columns pivoted QR finds independent, in ring
    order; re-solves use only those.  The 1 x 0.5 ellipse at m=128 and 96
    charges keeps 82 of 96."""

    @pytest.mark.parametrize("kind,m,n_charges,n_kept", [
        ("ellipse", 128, 96, 82), ("annulus", 256, 192, 384), ("disk", 256, 192, 192)])
    def test_pivoted_qr_keeps_the_columns_above_the_cut_in_ring_order(self, kind, m,
                                                                       n_charges, n_kept):
        domain, solver = _block_solver(kind, m, n_charges)
        rings = domain.charge_rings(n_charges)
        # the rings passed as given charges, so the solver keeps them whole
        whole = gr.MixedSolver(gr.discretize_pushed(domain, MIXED[kind], None, 0.0,
                                                    solver.config, rings), solver.config).matrix
        # the cut is pivoted QR of the whole matrix's blocked-QR triangle R
        n = whole.shape[1]
        triangle = np.triu(scipy.linalg.lapack.dgeqrt(min(gr.QR_BLOCK, n), whole)[0][:n])
        r, pivots = scipy.linalg.qr(triangle, mode="r", pivoting=True)
        diagonal = np.abs(np.diag(r))
        kept = np.sort(pivots[diagonal > gr.KEEP_CUT * diagonal[0]])
        assert len(kept) == n_kept
        np.testing.assert_array_equal(solver.solver.charges, np.vstack(rings)[kept])
        # the matrix holds the blocked-QR factors of the whole matrix's kept columns
        factors, _, _ = scipy.linalg.lapack.dgeqrt(min(gr.QR_BLOCK, len(kept)), whole[:, kept])
        np.testing.assert_array_equal(solver.solver.matrix, factors)
        assert solver.solver.matrix is solver.solver.factors.qr
        assert solver.solver.matrix.flags.f_contiguous
        np.testing.assert_array_equal(np.vstack([c.charges for c in solver.components]),
                                      solver.solver.charges)

    @pytest.mark.parametrize("m,n_charges", [(128, 16), (128, 32), (128, 64), (128, 96),
                                             (256, 128), (256, 192), (256, 256)])
    @pytest.mark.parametrize("kind", ["disk", "annulus", "star"])
    def test_the_registry_boundaries_keep_every_column_under_the_ring_rule(self, kind, m,
                                                                           n_charges):
        curve = geo.star_domain(1.0, 0.2, 3) if kind == "star" else CURVES[kind]
        solver = gr.GreensSolver(geo.Domain(curve, m=m), MIXED.get(kind, geo.all_dirichlet(1)),
                                 gr.GreensConfig(n_charges=n_charges))
        n_columns = n_charges * len(solver.components)
        assert solver.solver.matrix.shape == (2 * n_columns, n_columns)

    def test_route_solves_factor_the_kept_columns_once(self, monkeypatch):
        shapes, solve = [], gr.MixedSolver.solve

        def recorded(self, *args, **kwargs):
            shapes.append((id(self), self.matrix.shape))
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(gr.MixedSolver, "solve", recorded)
        domain = geo.Domain(CURVES["ellipse"], m=128)
        tri = hd.delta2_n_routes(domain, MIXED["ellipse"],
                                 pert.TaylorFamily(pert.translation(1.0, 0.0)),
                                 *BLOCK_POLES["ellipse"][:2], gr.GreensConfig(n_charges=96))
        assert tri.n_unknowns == 82
        # poles, first and second variations, all on the base solver's kept
        # columns; the tangent fits the pole on the same factors and solves nothing
        base = id(gr.base_solver(domain, MIXED["ellipse"], gr.GreensConfig(n_charges=96)).solver)
        assert shapes == [(base, (192, 82))] * 3

    def test_zero_velocity_ladder_values_are_bit_identical_at_every_t(self, monkeypatch):
        _, solver = _block_solver("ellipse", 128, 96)
        x, y = BLOCK_POLES["ellipse"][:2]
        values, ladder = {}, hd.derivative_ladder

        def recording(g, *args, **kwargs):
            return ladder(lambda t: values.setdefault(t, g(t)), *args, **kwargs)

        monkeypatch.setattr(hd, "derivative_ladder", recording)
        hd.delta2_n_fd(solver, pert.TaylorFamily(pert.zero_field()), x, y)
        # every re-solve has the base's matrix, so the base's own value
        assert len(values) == 9
        assert set(values.values()) == {solver.solve(y).value(x[None, :])[0]}

    def test_a_full_rank_boundary_keeps_every_column_in_order(self, annulus):
        cfg = gr.GreensConfig(n_charges=96)  # 384x192 at full rank
        solver = gr.GreensSolver(annulus, MIXED["annulus"], cfg)
        x, y = BLOCK_POLES["annulus"][:2]
        for kept, ring in zip([c.charges for c in solver.components],
                              annulus.charge_rings(96)):
            np.testing.assert_array_equal(kept, ring)
        fam = pert.TaylorFamily(pert.translation(1.0, 0.0))
        for t in (0.02, -0.01):
            whole = gr.GreensSolver(annulus, MIXED["annulus"], cfg, family=fam, t=t).solve(y)
            moved = solver.moved(fam, t)
            matrix = moved.solver.matrix.copy()
            kept = moved.solve(y)
            # the blocked QR's solution, and the one of a solver that decides
            # its own columns on T_t(Omega), which keeps all of them too
            col = np.concatenate(moved.corrector_data(y)[0])
            np.testing.assert_array_equal(kept.corrector.coefficients,
                                          _blocked_qr(matrix, col))
            np.testing.assert_array_equal(kept.corrector.coefficients,
                                          whole.corrector.coefficients)

    @pytest.mark.parametrize("routes", [hd.delta_n_routes, hd.delta2_n_routes])
    def test_a_route_computes_each_components_centroid_once(self, monkeypatch, routes):
        calls, centroid = [], geo.FourierCurve.centroid

        def counted(curve):
            calls.append(id(curve))
            return centroid(curve)

        monkeypatch.setattr(geo.FourierCurve, "centroid", counted)
        domain = geo.Domain(geo.annulus(0.5, 1.0), m=128)
        routes(domain, MIXED["annulus"], pert.TaylorFamily(pert.translation(1.0, 0.0)),
               *BLOCK_POLES["annulus"][:2], CONFIG)
        assert sorted(calls) == sorted(id(c) for c in domain.curve.components)


def _blocked_qr(matrix, rhs):
    """The least-squares solution by scipy's dgeqrt, dgemqrt and dtrsm, at
    ``_QRFactors``' block size."""
    n = matrix.shape[1]
    qr, t, _ = scipy.linalg.lapack.dgeqrt(min(gr.QR_BLOCK, n), matrix)
    qtb, _ = scipy.linalg.lapack.dgemqrt(qr, t, rhs.reshape(len(matrix), -1), trans="T")
    x = scipy.linalg.blas.dtrsm(1.0, qr[:n], qtb[:n])
    return x if rhs.ndim == 2 else x[:, 0]


class TestReSolves:
    """A re-solve on T_t(Omega) takes its base's kept charges and factors
    once by blocked QR, in place."""

    @pytest.mark.parametrize("kind,m,n_charges,n_kept", [("ellipse", 128, 96, 82),
                                                         ("annulus", 256, 192, 384)])
    def test_qr_factor_solves_equal_a_direct_lapack_reference_bit_for_bit(self, kind, m,
                                                                          n_charges, n_kept):
        _, solver = _block_solver(kind, m, n_charges)
        poles = BLOCK_POLES[kind]
        moved = solver.moved(pert.TaylorFamily(pert.dilation()), 0.01)
        assert moved.solver.matrix.shape[1] == n_kept
        rhs = np.concatenate(moved.corrector_data(poles)[0], axis=-1).T
        matrix = moved.solver.matrix
        assert matrix.flags.f_contiguous
        reference = [_blocked_qr(matrix, data) for data in (rhs[:, 0], rhs[:, 1:3])]
        factors = gr._QRFactors(matrix)
        assert np.shares_memory(factors.qr, matrix)  # factored in place, no copy
        for data, want in zip((rhs[:, 0], rhs[:, 1:3]), reference):
            np.testing.assert_array_equal(factors.solve(data), want)

    def test_a_re_solve_factors_once_in_place_on_the_kept_columns(self, monkeypatch):
        calls = []
        for name in ("dgeqp3", "dgeqrt"):
            lapack = getattr(gr._lapack, name)
            monkeypatch.setattr(gr._lapack, name,
                                lambda *a, _f=lapack, _n=name, **k: calls.append(_n) or _f(*a, **k))
        _, solver = _block_solver("ellipse", 128, 96)
        y = BLOCK_POLES["ellipse"][1]
        solver.solve(y)
        moved = solver.moved(pert.TaylorFamily(pert.dilation()), 0.05)
        sv = scipy.linalg.svdvals(moved.solver.matrix)
        first, second = moved.solve(y), moved.solve(BLOCK_POLES["ellipse"][0])
        # the base factors, decides on its R factor and factors its 82 kept
        # columns again; the re-solve only factors
        assert calls == ["dgeqrt", "dgeqp3", "dgeqrt", "dgeqrt"]
        assert moved.solver.matrix is moved.solver.factors.qr  # factored in place
        assert first.diagnostics.n_unknowns == second.diagnostics.n_unknowns == 82
        # once factored, the condition estimate comes from R, whose singular
        # values are the matrix's
        assert moved.solver.condition_estimate == pytest.approx(sv[0] / sv[-1], rel=1e-3)

    def test_a_non_finite_re_solve_fails_the_residual_gate(self, disk, monkeypatch):
        # an unpivoted QR does not truncate, so a singular R would give NaN
        # coefficients; the gate must not read a NaN residual as a pass
        solver = gr.GreensSolver(disk, geo.all_dirichlet(1), CONFIG)
        y = np.array([0.0, 0.4])
        solver.solve(y)
        monkeypatch.setattr(gr._blas, "dtrsm", lambda alpha, a, b: np.full(b.shape, np.nan))
        with pytest.raises(gr.GreensAccuracyError, match="residual nan"):
            solver.moved(pert.TaylorFamily(pert.dilation()), 0.01).solve(np.stack([y, y]))

    def test_a_re_solve_takes_the_images_of_the_kept_charges_of_an_unsolved_base(self):
        fam = pert.TaylorFamily(pert.dilation())
        x, y = BLOCK_POLES["ellipse"][:2]
        _, solver = _block_solver("ellipse", 128, 96)
        moved = solver.moved(fam, 0.01)  # no solve on the base first
        for comp, base in zip(moved.components, solver.components):
            np.testing.assert_array_equal(comp.charges, fam.map(base.charges, 0.01))
        assert moved.solver.matrix.shape == (192, 82)
        assert np.isfinite(hd.delta_n_fd(solver, fam, x, y).value)


# the deformation kinds of the rate tests: R = 0 with a turning frame, a
# fixed frame, a Taylor shear with R != 0, and a quadratic flow
RATE_FAMILIES = {
    "dilation": pert.TaylorFamily(pert.dilation()),
    "translation": pert.TaylorFamily(pert.translation(1.0, 0.0)),
    "shear-with-R": pert.TaylorFamily(pert.shear(0.5),
                                      pert.PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25})),
    "quadratic-flow": pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25,
                                                            (1, 0, 0): -0.2})),
}


class TestCollocationRates:
    """A', A'', b' and b'' are the t-derivatives of the re-solve's matrix and
    corrector data, their row-block products are the products with them, and
    the tangent fit differentiates the least-squares fit."""

    @pytest.fixture(scope="class")
    def solved(self, annulus):
        # 256x128 with Dirichlet rows on the outer circle, Neumann on the hole
        solver = gr.GreensSolver(annulus, MIXED["annulus"], gr.GreensConfig(n_charges=64))
        y = BLOCK_POLES["annulus"][1]
        solver.solve(y)
        return solver, y

    @pytest.mark.parametrize("name", sorted(RATE_FAMILIES))
    def test_rates_match_central_differences_of_the_re_solve_problem(self, solved, name):
        solver, y = solved
        family, h = RATE_FAMILIES[name], 1e-3
        problem = {}
        for t in (-2 * h, -h, 0.0, h, 2 * h):
            moved = solver.moved(family, t)
            problem[t] = (moved.solver.matrix.copy(), np.concatenate(moved.corrector_data(y)[0]))
        n_rows, n_columns = solver.solver.matrix.shape
        left = np.random.default_rng(1).standard_normal(n_rows)
        # with the identity on the right, P_k = [A_k | -b_k] comes out whole
        products = solver.collocation_rate_products(family, y, 2, np.eye(n_columns + 1), left)
        rates = []
        for whole, back in products:
            np.testing.assert_allclose(back, whole.T @ left, rtol=0,
                                       atol=1e-12 * np.max(np.abs(back)))
            rates.append((whole[:, :-1], -whole[:, -1]))
        n_dirichlet = solver.components[0].colloc.size
        for k in (0, 1):  # the matrix, then the data
            g = {t: value[k] for t, value in problem.items()}
            first = (-g[2 * h] + 8 * g[h] - 8 * g[-h] + g[-2 * h]) / (12 * h)
            second = (-g[2 * h] + 16 * g[h] - 30 * g[0.0] + 16 * g[-h] - g[-2 * h]) / (12 * h * h)
            for order, want in ((0, first), (1, second)):
                got = rates[order][k]
                assert got.shape == want.shape
                # Dirichlet rows, then Neumann rows; the stencils' truncation
                # and rounding read at most 1.2e-9 relative to max(1, |want|)
                for rows in (slice(None, n_dirichlet), slice(n_dirichlet, None)):
                    scale = max(1.0, float(np.max(np.abs(want[rows]))))
                    assert np.max(np.abs(got[rows] - want[rows])) <= 1e-8 * scale, (k, order)

    def test_a_gram_fit_solves_the_normal_equations(self):
        rng = np.random.default_rng(0)
        matrix, data, gram = rng.standard_normal((40, 10)), rng.standard_normal(40), \
            rng.standard_normal(10)
        x, residual = gr._QRFactors(np.asfortranarray(matrix)).fit(data, gram)
        # A^T A x = A^T data + gram, so x = A^+ data + (A^T A)^-1 gram
        np.testing.assert_allclose(x, np.linalg.solve(matrix.T @ matrix,
                                                      matrix.T @ data + gram),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(residual, data - matrix @ x, rtol=0, atol=1e-13)


class TestStoredFactors:
    """Row-blocked evaluations and matrix assembly keep the bits of one block."""

    @pytest.mark.parametrize("n_points", [None, 193, 64, 1])
    def test_row_blocked_evaluations_equal_one_block_bit_for_bit(self, annulus_solver,
                                                                 annulus, monkeypatch,
                                                                 n_points):
        # None takes the whole interior rule; 193 points leave a last block of
        # one row, which joins the one before
        nodes = annulus.interior().nodes[:n_points]
        block = annulus_solver.solve(BLOCK_POLES["annulus"][:2]).corrector
        fields = (block, block[1])
        monkeypatch.setattr(gr, "BLOCK_ENTRIES", 2 ** 40)
        whole = [(f.value(nodes), f.gradient(nodes), f.hessian(nodes)) for f in fields]
        monkeypatch.setattr(gr, "BLOCK_ENTRIES", 1)  # 64-row blocks
        for f, ref in zip(fields, whole):
            for got, want in zip((f.value(nodes), f.gradient(nodes), f.hessian(nodes)), ref):
                np.testing.assert_array_equal(got, want)


    def test_a_row_blocked_matrix_equals_one_block_bit_for_bit(self, annulus, monkeypatch):
        # Dirichlet rows on the outer circle, Neumann rows on the hole
        cfg = gr.GreensConfig(n_charges=64)
        components = gr.discretize_pushed(annulus, MIXED["annulus"], None, 0.0, cfg)
        monkeypatch.setattr(gr, "BLOCK_ENTRIES", 2 ** 40)
        whole = gr.MixedSolver(components, cfg).matrix
        monkeypatch.setattr(gr, "BLOCK_ENTRIES", 1000)  # 7-row blocks, a last one of 2
        blocked = gr.MixedSolver(components, cfg).matrix
        assert blocked.flags.f_contiguous
        np.testing.assert_array_equal(blocked, whole)


class TestLapackLedger:
    def test_registry_factors_once_per_solver_inside_mixed_solver(self, monkeypatch):
        # perfbench times factorizations as MixedSolver.__init__ and solves as
        # MixedSolver.solve.  Over the registry every LAPACK and BLAS call of
        # greens runs inside a MixedSolver method; each base solver makes one
        # pivoted QR (dgeqp3), when it is built, each solver one blocked QR
        # (dgeqrt), and none of gelsy's steps runs
        ledger, inside, built = [], [], {}  # built: solver -> on whole rings, held

        def counted(module, name):
            routine = getattr(module, name)

            def call(*args, **kwargs):
                ledger.append((name, inside[-1] if inside else None))
                return routine(*args, **kwargs)

            return call

        def entered(method):
            def run(self, *args, **kwargs):
                inside.append(self)
                try:
                    return method(self, *args, **kwargs)
                finally:
                    inside.pop()

            return run

        init = gr.MixedSolver.__init__

        def constructed(self, components, config=None):
            built[self] = all(c.whole_rings for c in components)
            init(self, components, config)

        gelsy_steps = ("dgelsy", "dtzrzf", "dormrz", "dormqr")
        if ON_OPENBLAS:  # the handle has none of them to call
            assert not [name for name in gelsy_steps if hasattr(gr._lapack, name)]
        for name in ("dgeqp3", "dgeqrt", "dgemqrt", "dgesdd",
                     *[name for name in gelsy_steps if hasattr(gr._lapack, name)]):
            monkeypatch.setattr(gr._lapack, name, counted(gr._lapack, name))
        monkeypatch.setattr(gr._blas, "dtrsm", counted(gr._blas, "dtrsm"))
        monkeypatch.setattr(gr.MixedSolver, "__init__", entered(constructed))
        for name in ("solve", "fit"):
            monkeypatch.setattr(gr.MixedSolver, name, entered(getattr(gr.MixedSolver, name)))
        case_settings = CaseSettings(seed=7)
        rows = [case.run(case_settings) for case in build_registry()]
        assert all(row.passed for row in rows), [r.case_id for r in rows if not r.passed]
        assert [call for call in ledger if call[1] is None] == []
        names = [name for name, _ in ledger]
        assert not set(gelsy_steps) & set(names)
        assert 0 < names.count("dgeqp3") < names.count("dgeqrt") == len(built) <= 50
        for solver, base in built.items():
            made = [name for name, by in ledger if by is solver]
            assert (made.count("dgeqp3"), made.count("dgeqrt")) == (int(base), 1)


# Poles kept well inside each domain, where the solver resolves N to about
# 1e-11; the star needs a charge ring as close as 1.3, which the rule gives
# it at 176 charges (at 128, R = 1.43, its symmetry gap reaches 2e-10).
PROPERTY_DOMAINS = {
    "disk": (geo.disk(1.0), geo.all_dirichlet(1), (0.0, 0.7), CONFIG),
    "star": (geo.star_domain(1.0, 0.2, 3), geo.all_dirichlet(1), (0.0, 0.55),
             gr.GreensConfig(n_charges=176)),
    "annulus": (geo.annulus(0.5, 1.0), geo.MixedBoundary(("dirichlet", "neumann")),
                (0.7, 0.8), CONFIG),
}


@pytest.fixture(scope="module")
def property_solvers():
    return {kind: gr.GreensSolver(geo.Domain(curve, m=128), mixedb, cfg)
            for kind, (curve, mixedb, _, cfg) in PROPERTY_DOMAINS.items()}


class TestBlockProperties:
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(sorted(PROPERTY_DOMAINS)),
           draws=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, TWO_PI)),
                          min_size=2, max_size=5))
    def test_block_of_random_poles_is_symmetric_and_matches_single_solves(
            self, property_solvers, kind, draws):
        r_min, r_max = PROPERTY_DOMAINS[kind][2]
        radius = np.sqrt(r_min ** 2 + np.array([u for u, _ in draws]) * (r_max ** 2 - r_min ** 2))
        angle = np.array([a for _, a in draws])
        poles = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        gaps = np.linalg.norm(poles[:, None] - poles[None], axis=-1)
        assume(np.min(gaps + np.eye(len(poles))) >= 0.05)
        solver = property_solvers[kind]
        block = solver.solve(poles)
        for i, pole in enumerate(poles):
            single = solver.solve(pole)
            assert block.diagnostics[i].n_unknowns == single.diagnostics.n_unknowns
            for j, other in enumerate(poles):
                if i == j:
                    continue
                value = block[i].value(other)[0]
                assert abs(value - block[j].value(pole)[0]) <= 1e-10
                assert abs(value - single.value(other)[0]) <= 1e-13
