import numpy as np
import pytest

from shapelab import geometry as geo
from shapelab import hadamard as hd
from shapelab import perturbation as pert
from shapelab.cases import route_result
from shapelab._fd import derivative_ladder
from shapelab.geometry import _rotate_quarter, tangential_grad
from shapelab.greens import GreensConfig, GreensSolver, disk_greens

TWO_PI = 2.0 * np.pi
DISK_PROBES = (np.array([0.3, 0.0]), np.array([0.0, 0.4]))
ANNULUS_PROBES = (np.array([0.0, 0.75]), np.array([-0.74, -0.1]))


@pytest.fixture(scope="module")
def disk():
    return geo.Domain(geo.disk(1.0), m=128)


@pytest.fixture(scope="module")
def annulus():
    return geo.Domain(geo.annulus(0.5, 1.0), m=128)


@pytest.fixture(scope="module")
def annulus_mixed():
    return geo.MixedBoundary(("dirichlet", "neumann"))


def translation():
    return pert.TaylorFamily(pert.translation(1.0, 0.0))


def generic_flow():
    return pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))


# ---------------------------------------------------------------------------
# chi / sigma
# ---------------------------------------------------------------------------

class TestCoefficients:
    def test_dilation_anchor(self, disk):
        co = hd.chi_sigma(disk, pert.TaylorFamily(pert.dilation()))
        for chi in (co.chi, co.chi_transport, co.chi_curvature):
            np.testing.assert_allclose(chi[0], -1.0, atol=1e-10)
        for sigma in (co.sigma, co.sigma_transport, co.sigma_curvature):
            np.testing.assert_allclose(sigma[0], 0.0, atol=1e-10)

    def test_three_forms_agree_on_generic_flow(self):
        dom = geo.Domain(geo.elliptical_domain(2.0, 1.0), m=256)
        co = hd.chi_sigma(dom, generic_flow())
        assert co.max_discrepancy < 1e-10

    def test_three_forms_agree_on_annulus(self, annulus):
        co = hd.chi_sigma(annulus, translation())
        assert co.max_discrepancy < 1e-10

    def test_constant_normal_perturbation(self, disk):
        rho_bar = 0.3
        fam = pert.NormalFamily(disk.grids[0], rho_bar * np.ones(disk.grids[0].size))
        co = hd.chi_sigma(disk, fam)
        np.testing.assert_allclose(co.chi[0], -rho_bar ** 2, atol=1e-12)
        np.testing.assert_allclose(co.sigma[0], 0.0, atol=1e-12)

    def test_varying_normal_perturbation_sigma_vanishes(self, disk):
        grid = disk.grids[0]
        fam = pert.NormalFamily(grid, 0.3 + 0.1 * np.sin(3 * grid.thetas))
        co = hd.chi_sigma(disk, fam)
        # tangential deformation velocity vanishes, so sigma = rho2 = 0
        np.testing.assert_allclose(co.sigma[0], 0.0, atol=1e-11)
        assert co.max_discrepancy < 1e-10

    def test_display_residual_is_tangential_transport(self):
        dom = geo.Domain(geo.elliptical_domain(2.0, 1.0), m=256)
        fam = generic_flow()
        co = hd.chi_sigma(dom, fam)
        grid = dom.grids[0]
        data = pert.boundary_data(fam, grid)
        s_tan = np.einsum("ni,ni->n", data.velocity, grid.tangent)
        expected = s_tan * tangential_grad(grid, data.normal_velocity)
        np.testing.assert_allclose(co.chi_display_residual[0], expected, atol=1e-11)
        assert np.max(np.abs(expected)) > 0.1  # the residual is not trivially zero

    def test_rotation_bookkeeping(self, disk):
        co = hd.chi_sigma(disk, pert.FlowFamily(pert.rotation()))
        # delta rho = 0 and the advective term cancels the acceleration
        np.testing.assert_allclose(co.sigma[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(co.chi[0], 0.0, atol=1e-12)
        assert co.max_discrepancy < 1e-12


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------

class TestFirstVariation:
    def test_dilation_scaling_oracle(self, disk):
        x, y = DISK_PROBES
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        val = hd.delta_n_formula(solver, pert.TaylorFamily(pert.dilation()),
                                 solver.solve(np.stack([x, y])))
        oracle = hd.disk_dilation_delta_n(x, y, order=1)
        assert abs(val - oracle) / (1 + abs(oracle)) < 1e-4

    def test_center_pole_constant_variation(self, disk):
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        ev0 = solver.solve(np.array([0.0, 0.0]))
        udot, _ = hd.delta_n_bvp(solver, pert.TaylorFamily(pert.dilation()), ev0)
        probes = np.array([[0.3, 0.0], [-0.2, 0.4], [0.1, -0.5]])
        np.testing.assert_allclose(udot.value(probes), 1.0 / TWO_PI, atol=1e-10)

    def test_rotation_gives_zero(self, disk):
        x, y = DISK_PROBES
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        val = hd.delta_n_formula(solver, pert.FlowFamily(pert.rotation()),
                                 solver.solve(np.stack([x, y])))
        assert abs(val) < 1e-12

    def test_formula_symmetric_in_poles(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        solver = GreensSolver(annulus, annulus_mixed)
        ev = solver.solve(np.stack([x, y]))
        fam = translation()
        assert hd.delta_n_formula(solver, fam, ev) == pytest.approx(
            hd.delta_n_formula(solver, fam, ev[::-1]), abs=1e-15)

    def test_route_triangle_disk(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta_n_routes(disk, geo.all_dirichlet(1),
                                pert.TaylorFamily(pert.dilation()), x, y)
        assert tri.max_pairwise < 1e-3

    def test_route_triangle_annulus(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        tri = hd.delta_n_routes(annulus, annulus_mixed, translation(), x, y)
        assert tri.max_pairwise < 1e-3

    def test_bvp_equals_formula_at_probes(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        solver = GreensSolver(annulus, annulus_mixed)
        ev = solver.solve(np.stack([x, y]))
        fam = translation()
        udot, _ = hd.delta_n_bvp(solver, fam, ev[1])
        formula = hd.delta_n_formula(solver, fam, ev)
        assert abs(udot.value(x[None, :])[0] - formula) < 1e-5

    def test_probe_warning_near_boundary(self, disk):
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        assert hd.probe_warning(solver, np.array([0.99, 0.0])) is not None
        assert hd.probe_warning(solver, np.array([0.3, 0.0])) is None

    @pytest.mark.parametrize("routes", [hd.delta_n_routes, hd.delta2_n_routes])
    def test_routes_warn_for_a_probe_near_the_boundary(self, disk, routes):
        # 0.14 from the circle, inside 3 node spacings (0.147) at m=128; the
        # translation along the circle keeps every re-solve under the gate
        near = np.array([0.86, 0.0])
        with pytest.warns(UserWarning, match="node spacings"):
            tri = routes(disk, geo.all_dirichlet(1), pert.TaylorFamily(pert.translation(0.0, 1.0)),
                         near, DISK_PROBES[1])
        assert np.isfinite(tri.max_pairwise)

    def test_routes_warn_for_a_probe_near_a_re_solved_boundary(self, disk):
        # (0.80, 0) is 0.20 from the unit circle, outside 3 node spacings
        # (0.147) at m=128, but the t = -0.1 re-solve of the dilation moves
        # the circle to radius 0.9; that warning is issued once
        with pytest.warns(UserWarning, match="node spacings") as record:
            tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1), pert.TaylorFamily(pert.dilation()),
                                     np.array([0.80, 0.0]), DISK_PROBES[1])
        messages = [str(w.message) for w in record if "node spacings" in str(w.message)]
        assert len(messages) == 1 and "0.8" in messages[0]
        assert tri.max_pairwise < 1e-9
        assert tri.residual < 1e-5


# ---------------------------------------------------------------------------
# second variation
# ---------------------------------------------------------------------------

def _kernel_third(points, sources):
    points = np.atleast_2d(points)
    sources = np.atleast_2d(sources)
    d = points[:, None, :] - sources[None, :, :]
    r2 = np.einsum("nki,nki->nk", d, d)
    out = np.zeros((points.shape[0], sources.shape[0], 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[:, :, i, j, k] = (
                    2 * ((i == k) * d[:, :, j] + (j == k) * d[:, :, i]
                         - (i == j) * d[:, :, k]) / r2 ** 2
                    - 8 * d[:, :, k] * d[:, :, i] * d[:, :, j] / r2 ** 3
                    + 4 * (i == j) * d[:, :, k] / r2 ** 2)
    return out / TWO_PI


def _third_of_eval(ev, pts):
    return (_kernel_third(pts, ev.pole[None, :])[:, 0]
            + np.einsum("nkijl,k->nijl",
                        _kernel_third(pts, ev.corrector.charges),
                        ev.corrector.coefficients))


class TestSecondVariationData:
    """The second-order boundary data against chain-rule kernel oracles.

    Differentiating the moving-boundary conditions twice gives, with no
    tangential reductions at all,
      uddot = -(R.grad)N - HessN[S,S] - 2(S.grad)deltaN          on gamma^0,
      d(uddot)/dnu from the twice-differentiated flux condition  on gamma^1.
    Both are computable from the charge representations and pin every sign
    in the assembled data.
    """

    def test_dirichlet_data_matches_chain_rule(self, annulus, annulus_mixed):
        # the closer 1.3 ring resolves the traces of every pole: on the 1.6
        # ring the gap is 1.7e-5 at (0, 0.75)
        solver = GreensSolver(annulus, annulus_mixed, GreensConfig(charge_offset_outer=1.3))
        fam = translation()
        coeffs = hd.chi_sigma(annulus, fam)
        grid = annulus.grids[0]
        s = fam.velocity(grid.nodes)
        r = fam.acceleration(grid.nodes)
        for y in (*ANNULUS_PROBES, np.array([0.6, -0.4])):
            ev_y = solver.solve(y)
            udot_y, _ = hd.delta_n_bvp(solver, fam, ev_y)
            nodal = hd.second_bvp_data(solver, fam, ev_y, udot_y, coeffs)
            oracle = -(np.einsum("ni,ni->n", r, ev_y.gradient(grid.nodes))
                       + np.einsum("ni,nij,nj->n", s, ev_y.hessian(grid.nodes), s)
                       + 2 * np.einsum("ni,ni->n", s, udot_y.gradient(grid.nodes)))
            np.testing.assert_allclose(nodal[0], oracle, atol=1e-5, err_msg=f"pole {y}")

    def test_neumann_data_matches_chain_rule(self, annulus, annulus_mixed):
        solver = GreensSolver(annulus, annulus_mixed)
        fam = generic_flow()
        ev_y = solver.solve(ANNULUS_PROBES[1])
        udot_y, _ = hd.delta_n_bvp(solver, fam, ev_y)
        nodal = hd.second_bvp_data(solver, fam, ev_y, udot_y,
                                   hd.chi_sigma(annulus, fam))

        grid = annulus.grids[1]
        vel = grid.curve.velocity(grid.thetas)
        s = fam.velocity(grid.nodes)
        r = fam.acceleration(grid.nodes)
        ds = fam.velocity_jacobian(grid.nodes)
        dr = fam.acceleration_jacobian(grid.nodes)
        m_t = _rotate_quarter(np.einsum("nij,nj->ni", ds, vel))
        m_tt = _rotate_quarter(np.einsum("nij,nj->ni", dr, vel))
        g_t = (np.einsum("nij,nj->ni", ev_y.hessian(grid.nodes), s)
               + udot_y.gradient(grid.nodes))
        g_tt = (np.einsum("nijk,nj,nk->ni", _third_of_eval(ev_y, grid.nodes), s, s)
                + np.einsum("nij,nj->ni", ev_y.hessian(grid.nodes), r)
                + 2 * np.einsum("nij,nj->ni", udot_y.hessian(grid.nodes), s))
        oracle = -(np.einsum("ni,ni->n", m_tt, ev_y.gradient(grid.nodes))
                   + 2 * np.einsum("ni,ni->n", m_t, g_t)
                   + grid.speed * np.einsum("ni,ni->n", grid.normal, g_tt)) / grid.speed
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(nodal[1] - oracle)) / scale < 1e-6


class TestMixedAnnulusScalingOracle:
    """Dilation on the mixed annulus against the series-solution oracle.

    The mixed Green's function inherits the log-kernel scaling identity
    N_t(x, y) = N(x/(1+t), y/(1+t)) under dilation, so differencing the
    classical series solution gives an oracle that is fully external to the
    collocation solver and exercises the Neumann-side coefficient and cross
    terms (chi differs from sigma on the inner circle).
    """

    def _series_scaling(self, x, y, order):
        from test_greens import mixed_annulus_greens

        ladder = (1e-3, 5e-4) if order == 1 else (2e-2, 1e-2, 5e-3)
        return derivative_ladder(
            lambda t: mixed_annulus_greens(x / (1 + t), y / (1 + t)),
            order=order, ladder=ladder).value

    def test_first_variation(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        tri = hd.delta_n_routes(annulus, annulus_mixed,
                                pert.TaylorFamily(pert.dilation()), x, y)
        oracle = self._series_scaling(x, y, 1)
        assert abs(tri.formula - oracle) / (1 + abs(oracle)) < 1e-8

    def test_second_variation(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        tri = hd.delta2_n_routes(annulus, annulus_mixed,
                                 pert.TaylorFamily(pert.dilation()), x, y)
        oracle = self._series_scaling(x, y, 2)
        assert abs(tri.formula - oracle) / (1 + abs(oracle)) < 1e-6
        assert tri.max_pairwise < 1e-6


class TestSecondVariationRoutes:
    def test_dilation_scaling_oracle(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1),
                                 pert.TaylorFamily(pert.dilation()), x, y)
        oracle = hd.disk_dilation_delta_n(x, y, order=2)
        assert abs(tri.formula - oracle) / (1 + abs(oracle)) < 1e-2
        assert tri.max_pairwise < 1e-2

    def test_translation_analytic_oracle(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1), translation(), x, y)
        e = np.array([1.0, 0.0])
        oracle = derivative_ladder(
            lambda t: disk_greens(x - t * e, y - t * e), order=2,
            ladder=(2e-2, 1e-2, 5e-3)).value
        assert abs(tri.formula - oracle) / (1 + abs(oracle)) < 1e-6
        assert tri.max_pairwise < 1e-6

    def test_rotation_vanishes_in_all_routes(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1),
                                 pert.FlowFamily(pert.rotation()), x, y)
        assert max(abs(tri.formula), abs(tri.bvp), abs(tri.fd)) < 1e-6

    def test_route_triangle_annulus_translation(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        tri = hd.delta2_n_routes(annulus, annulus_mixed, translation(), x, y)
        assert tri.max_pairwise < 1e-2

    def test_route_triangle_annulus_flow(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25,
                                                    (1, 0, 0): -0.2}))
        tri = hd.delta2_n_routes(annulus, annulus_mixed, fam, x, y)
        assert tri.max_pairwise < 1e-2

    def test_route_triangle_normal_family(self, annulus, annulus_mixed):
        grid = annulus.grids[0]
        fam = pert.NormalFamily(grid, 0.5 + 0.2 * np.cos(2 * grid.thetas))
        x, y = ANNULUS_PROBES
        tri = hd.delta2_n_routes(annulus, annulus_mixed, fam, x, y)
        assert tri.max_pairwise < 1e-2

    def test_route_triangle_keeps_its_solve_diagnostics(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        fam = translation()
        tri = hd.delta2_n_routes(annulus, annulus_mixed, fam, x, y)
        solver = GreensSolver(annulus, annulus_mixed)
        ev = solver.solve(np.stack([x, y]))
        udot, udot_diags = hd.delta_n_bvp(solver, fam, ev)
        _, uddot_diag = hd.delta2_n_bvp(solver, fam, ev[1], udot[1],
                                        hd.chi_sigma(annulus, fam))
        diags = [*ev.diagnostics, *udot_diags, uddot_diag]
        assert tri.residual == max(d.residual for d in diags) > 0.0
        assert tri.rank == min(d.rank for d in diags)
        assert tri.n_unknowns == solver.solver.matrix.shape[1] == 256
        assert tri.solve_details() == {"solve_residual": tri.residual,
                                       "solve_rank": tri.rank, "n_unknowns": 256}

    def test_pole_exchange_symmetry(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        solver = GreensSolver(annulus, annulus_mixed)
        fam = translation()
        ev = solver.solve(np.stack([x, y]))
        udot, _ = hd.delta_n_bvp(solver, fam, ev)
        co = hd.chi_sigma(annulus, fam)
        forward = hd.delta2_n_formula(solver, fam, ev, udot, co)
        backward = hd.delta2_n_formula(solver, fam, ev[::-1], udot[::-1], co)
        assert abs(forward - backward) < 1e-10


class TestRouteDetails:
    def test_route_rows_carry_the_fd_order_and_warnings(self, disk):
        tri = hd.delta_n_routes(disk, geo.all_dirichlet(1), pert.TaylorFamily(pert.dilation()),
                                *DISK_PROBES)
        details = route_result(tri)[4]
        assert 3.5 < details["fd_observed_order"] == tri.fd_observed_order < 4.5
        assert "fd_observed_order_reason" not in details
        assert details["fd_warnings"] == []

    def test_a_degenerate_fd_order_is_null_with_a_reason(self, disk):
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1), pert.FlowFamily(pert.rotation()),
                                 *DISK_PROBES)
        details = route_result(tri)[4]
        assert tri.fd_observed_order == np.inf
        assert details["fd_observed_order"] is None
        assert details["fd_observed_order_reason"] == "ladder differences at rounding level"


class TestGradientPairing:
    def test_degenerate_family_gives_zero(self, disk):
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        fam = pert.FlowFamily(pert.rotation())  # delta rho = 0
        x, y = DISK_PROBES
        ev = solver.solve(np.stack([x, y]))
        udot, _ = hd.delta_n_bvp(solver, fam, ev)
        lhs, rhs, residual = hd.gradient_pairing_residual(solver, fam, ev, udot)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_disk_dilation(self, disk):
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        fam = pert.TaylorFamily(pert.dilation())
        x, y = DISK_PROBES
        ev = solver.solve(np.stack([x, y]))
        udot, _ = hd.delta_n_bvp(solver, fam, ev)
        _, _, residual = hd.gradient_pairing_residual(solver, fam, ev, udot)
        assert residual < 1e-4

    def test_annulus_translation(self, annulus, annulus_mixed):
        solver = GreensSolver(annulus, annulus_mixed)
        fam = translation()
        x, y = ANNULUS_PROBES
        ev = solver.solve(np.stack([x, y]))
        udot, _ = hd.delta_n_bvp(solver, fam, ev)
        _, _, residual = hd.gradient_pairing_residual(solver, fam, ev, udot)
        assert residual < 1e-3
