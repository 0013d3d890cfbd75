import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapelab import cli
from shapelab import geometry as geo
from shapelab import greens as gr
from shapelab import hadamard as hd
from shapelab import perturbation as pert
from shapelab.cases import route_result
from shapelab._fd import derivative_ladder
from shapelab.geometry import _rotate_quarter, tangential_grad
from shapelab.greens import GreensConfig, GreensSolver, HarmonicField, disk_greens

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


def _rel(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


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
        assert tri.err() < 1e-3

    def test_route_triangle_annulus(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        tri = hd.delta_n_routes(annulus, annulus_mixed, translation(), x, y)
        assert tri.err() < 1e-3

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
        with pytest.warns(UserWarning, match="node spacings") as record:
            tri = routes(disk, geo.all_dirichlet(1), pert.TaylorFamily(pert.translation(0.0, 1.0)),
                         near, DISK_PROBES[1])
        assert np.isfinite(tri.err())
        # the row keeps the base-boundary warning the route issued
        message = hd.probe_warning(GreensSolver(disk, geo.all_dirichlet(1)), near)
        assert route_result(tri)[3]["probe_warnings"] == [message]
        assert message in [str(w.message) for w in record]

    def test_fd_re_solves_record_a_probe_near_a_re_solved_boundary(self, disk):
        # (0.80, 0) is 0.20 from the unit circle, outside 3 node spacings
        # (0.147) at m=128, but the t = -0.1 re-solve of the dilation moves
        # the circle to radius 0.9; the routes solve only at t = 0 and warn
        # of nothing, while the FD ladder records that warning once
        x, y = np.array([0.80, 0.0]), DISK_PROBES[1]
        fam = pert.TaylorFamily(pert.dilation())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1), fam, x, y)
        assert tri.err() < 1e-9
        assert tri.residual < 1e-5
        solver = GreensSolver(disk, geo.all_dirichlet(1))
        solver.solve(y)
        messages = [m for m in hd.delta2_n_fd(solver, fam, x, y).warnings
                    if "node spacings" in m]
        assert len(messages) == 1 and "0.8" in messages[0]


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
        solver = GreensSolver(annulus, annulus_mixed)
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
        assert tri.err() < 1e-6


class TestSecondVariationRoutes:
    def test_dilation_scaling_oracle(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1),
                                 pert.TaylorFamily(pert.dilation()), x, y)
        oracle = hd.disk_dilation_delta_n(x, y, order=2)
        assert abs(tri.formula - oracle) / (1 + abs(oracle)) < 1e-2
        assert tri.err() < 1e-2

    def test_a_grid_coarser_than_the_charge_count_is_warned_of(self):
        # the boundary-paired volume term is at rounding while m >= n_charges
        x, y = DISK_PROBES
        for m, n_charges in [(64, 96), (128, 96)]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tri = hd.delta2_n_routes(geo.Domain(geo.disk(1.0), m=m), geo.all_dirichlet(1),
                                         translation(), x, y, GreensConfig(n_charges=n_charges))
            coarse = [w for w in caught if "below n_charges" in str(w.message)]
            assert len(coarse) == (m < n_charges)
            assert tri.err() < 1e-6

    def test_translation_analytic_oracle(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1), translation(), x, y)
        e = np.array([1.0, 0.0])
        oracle = derivative_ladder(
            lambda t: disk_greens(x - t * e, y - t * e), order=2,
            ladder=(2e-2, 1e-2, 5e-3)).value
        assert abs(tri.formula - oracle) / (1 + abs(oracle)) < 1e-6
        assert tri.err() < 1e-6

    def test_rotation_vanishes_in_all_routes(self, disk):
        x, y = DISK_PROBES
        tri = hd.delta2_n_routes(disk, geo.all_dirichlet(1),
                                 pert.FlowFamily(pert.rotation()), x, y)
        assert max(abs(tri.formula), abs(tri.bvp), abs(tri.tangent)) < 1e-6

    def test_route_triangle_annulus_translation(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        tri = hd.delta2_n_routes(annulus, annulus_mixed, translation(), x, y)
        assert tri.err() < 1e-2

    def test_route_triangle_annulus_flow(self, annulus, annulus_mixed):
        x, y = ANNULUS_PROBES
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25,
                                                    (1, 0, 0): -0.2}))
        tri = hd.delta2_n_routes(annulus, annulus_mixed, fam, x, y)
        assert tri.err() < 1e-2

    def test_route_triangle_normal_family(self, annulus, annulus_mixed):
        grid = annulus.grids[0]
        fam = pert.NormalFamily(grid, 0.5 + 0.2 * np.cos(2 * grid.thetas))
        x, y = ANNULUS_PROBES
        tri = hd.delta2_n_routes(annulus, annulus_mixed, fam, x, y)
        assert tri.err() < 1e-2

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
        assert tri.n_unknowns == solver.solver.matrix.shape[1] == 256
        assert tri.solve_details() == {"solve_residual": tri.residual, "n_unknowns": 256}

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


# Poles drawn where the route rows put theirs: r <= 0.7 on the disk and the
# band 0.7 <= r <= 0.8 of the mixed annulus, where the solver resolves N.
EXCHANGE_DOMAINS = {"disk": (geo.disk(1.0), geo.all_dirichlet(1), (0.0, 0.7)),
                    "annulus": (geo.annulus(0.5, 1.0),
                                geo.MixedBoundary(("dirichlet", "neumann")), (0.7, 0.8))}
EXCHANGE_FAMILIES = {"dilation": lambda: pert.TaylorFamily(pert.dilation()),
                     "translation": translation, "generic flow": generic_flow}


@pytest.fixture(scope="module")
def exchange_setups():
    """Per (domain, family): the base solver and the chi/sigma coefficients."""
    setups = {}
    for kind, (curve, mixed, _) in EXCHANGE_DOMAINS.items():
        solver = GreensSolver(geo.Domain(curve, m=128), mixed)
        for name, family in EXCHANGE_FAMILIES.items():
            fam = family()
            setups[kind, name] = (solver, fam, hd.chi_sigma(solver.domain, fam))
    return setups


class TestPoleExchangeProperty:
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(sorted(EXCHANGE_DOMAINS)),
           family=st.sampled_from(sorted(EXCHANGE_FAMILIES)),
           draws=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, TWO_PI),
                           st.floats(0.0, 1.0), st.floats(0.0, TWO_PI)))
    def test_first_and_second_variations_are_symmetric_in_the_poles(
            self, exchange_setups, kind, family, draws):
        solver, fam, coeffs = exchange_setups[kind, family]
        r_min, r_max = EXCHANGE_DOMAINS[kind][2]
        u = np.array(draws[::2])
        radius = np.sqrt(r_min ** 2 + u * (r_max ** 2 - r_min ** 2))
        angle = np.array(draws[1::2])
        x, y = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
        assume(np.linalg.norm(x - y) >= 0.1)
        ev = solver.solve(np.stack([x, y]))
        udot, _ = hd.delta_n_bvp(solver, fam, ev)
        first = hd.delta_n_formula(solver, fam, ev)
        assert abs(first - hd.delta_n_formula(solver, fam, ev[::-1])) <= 1e-12 * (1 + abs(first))
        second = hd.delta2_n_formula(solver, fam, ev, udot, coeffs)
        swapped = hd.delta2_n_formula(solver, fam, ev[::-1], udot[::-1], coeffs)
        assert abs(second - swapped) <= 1e-10 * (1 + abs(second))


TANGENT_FAMILIES = {
    "dilation": pert.TaylorFamily(pert.dilation()),
    "translation": translation(),
    "shear-with-R": pert.TaylorFamily(pert.shear(0.5),
                                      pert.PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25})),
    "quadratic-flow": pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25,
                                                            (1, 0, 0): -0.2})),
}
# |tangent - FD| / (1 + max) on the registry boundaries (m=128, 96 charges):
# at most 4.4e-15 (first) and 5.3e-11 (second) on the disk, 3.4e-11 and
# 9.9e-10 on the mixed annulus, where the FD ladder's noise sets the gap
TANGENT_FD_BOUNDS = {("disk", 1): 1e-13, ("disk", 2): 3e-9,
                     ("annulus", 1): 1e-9, ("annulus", 2): 3e-8}


class TestTangentRoute:
    """The tangent is the exact t-derivative of what the FD re-solves difference."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["disk", "annulus"])
    @pytest.mark.parametrize("name", sorted(TANGENT_FAMILIES))
    def test_the_tangent_matches_fd_re_solves_on_the_registry_boundaries(
            self, disk, annulus, annulus_mixed, kind, name, order):
        domain, mixed, (x, y) = ((disk, geo.all_dirichlet(1), DISK_PROBES) if kind == "disk"
                                 else (annulus, annulus_mixed, ANNULUS_PROBES))
        solver = GreensSolver(domain, mixed, GreensConfig(n_charges=96))
        solver.solve(np.stack([x, y]))
        family = TANGENT_FAMILIES[name]
        tangent, fd = ((hd.delta_n_tangent, hd.delta_n_fd) if order == 1
                       else (hd.delta2_n_tangent, hd.delta2_n_fd))
        value = tangent(solver, family, x, y)
        reference = fd(solver, family, x, y).value
        gap = abs(value - reference) / (1.0 + max(abs(value), abs(reference)))
        assert gap <= TANGENT_FD_BOUNDS[kind, order]

    def test_the_tangent_re_solves_nothing(self, annulus, annulus_mixed, monkeypatch):
        solver = GreensSolver(annulus, annulus_mixed)
        x, y = ANNULUS_PROBES
        built = []
        init = gr.MixedSolver.__init__
        monkeypatch.setattr(gr.MixedSolver, "__init__",
                            lambda self, *args, **kwargs: built.append(self)
                            or init(self, *args, **kwargs))
        monkeypatch.setattr(hd, "derivative_ladder", None)
        value = hd.delta2_n_tangent(solver, translation(), x, y)
        # no re-solve, and no t = 0 matrix beside the base's own
        assert np.isfinite(value) and built == []


def _two_sweep_delta2(solver, family, x, y):
    """The second t-derivative by the two-sweep Golub-Pereyra rule: c'' from
    its own fit, whose A'c' and A'^T r' take a second, order-1 sweep."""
    fit = solver.solver.fit
    c, r = fit(np.concatenate(solver.corrector_data(y)[0]), np.zeros(len(solver.solver.charges)))
    (d1, g1), (d2, g2) = solver.collocation_rate_products(family, y, 2, np.append(c, 1.0), r)
    c1, r1 = fit(-d1, g1[:-1])
    (e1, h1), = solver.collocation_rate_products(family, y, 1, np.append(c1, 0.0), r1)
    c2, _ = fit(-d2 - 2.0 * e1, g2[:-1] + 2.0 * h1[:-1])
    kernel = solver.kernel_row_rates(family, x, 2)
    return float(kernel[0] @ c2 + 2.0 * (kernel[1] @ c1) + kernel[2] @ c)


SWEEP_BOUNDARIES = {
    "disk": (geo.disk(1.0), geo.all_dirichlet(1), DISK_PROBES),
    "annulus-dn": (geo.annulus(0.5, 1.0), geo.MixedBoundary(("dirichlet", "neumann")),
                   ANNULUS_PROBES),
    "annulus-nd": (geo.annulus(0.5, 1.0), geo.MixedBoundary(("neumann", "dirichlet")),
                   ANNULUS_PROBES),
}


@pytest.fixture(scope="module")
def sweep_solvers():
    """Per boundary: the m=256, 192-charge base solver, solved at its poles."""
    solvers = {}
    for kind, (curve, mixed, poles) in SWEEP_BOUNDARIES.items():
        solver = GreensSolver(geo.Domain(curve, m=256), mixed, GreensConfig(n_charges=192))
        solver.solve(np.stack(poles))
        solvers[kind] = solver
    return solvers


class TestOneSweepTangent:
    """The second-variation tangent reads k_0 . c'' off the value row's adjoint
    pair in the order-2 sweep; it is the two-sweep Golub-Pereyra value."""

    @pytest.mark.parametrize("kind", sorted(SWEEP_BOUNDARIES))
    @pytest.mark.parametrize("name", sorted(TANGENT_FAMILIES))
    def test_one_sweep_equals_two_sweeps_at_192_charges(self, sweep_solvers, kind, name):
        # largest gap over the five OpenBLAS core types of the drift
        # baseline: 9.2e-15 relative
        solver, (x, y) = sweep_solvers[kind], SWEEP_BOUNDARIES[kind][2]
        family = TANGENT_FAMILIES[name]
        value = hd.delta2_n_tangent(solver, family, x, y)
        reference = _two_sweep_delta2(solver, family, x, y)
        assert abs(value - reference) <= 1e-12 * (1.0 + abs(reference))

    @pytest.mark.parametrize("name", sorted(TANGENT_FAMILIES))
    def test_one_sweep_and_two_sweeps_on_the_registry_annulus(self, annulus, annulus_mixed,
                                                              name):
        # m=128 and 96 charges: the 384x192 matrix's condition estimate is
        # 8.5e11 and the fit of the pole y leaves a residual of up to 8.1e-9
        # (4.3e-15 at 192 charges), which the two rules weigh differently.
        # Measured relative gap over these families and the five OpenBLAS core
        # types: 4.9e-11 (translation, the registry row's family) to 1.6e-10
        # on SkylakeX, at most 3.9e-10 (Nehalem)
        solver = GreensSolver(annulus, annulus_mixed, GreensConfig(n_charges=96))
        x, y = ANNULUS_PROBES
        family = TANGENT_FAMILIES[name]
        value = hd.delta2_n_tangent(solver, family, x, y)
        reference = _two_sweep_delta2(solver, family, x, y)
        assert _rel(value, reference) <= 1e-9

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("kind", ["disk", "annulus-dn"])
    def test_a_tangent_sweeps_each_component_once(self, sweep_solvers, monkeypatch,
                                                  kind, order):
        sweeps, rates = [], gr.kernel_rates

        def counted(points, *args, **kwargs):
            sweeps.append(np.size(points))
            return rates(points, *args, **kwargs)

        monkeypatch.setattr(gr, "kernel_rates", counted)
        solver, (x, y) = sweep_solvers[kind], SWEEP_BOUNDARIES[kind][2]
        tangent = hd.delta_n_tangent if order == 1 else hd.delta2_n_tangent
        assert np.isfinite(tangent(solver, TANGENT_FAMILIES["dilation"], x, y))
        # one sweep of each component's collocation nodes, and the probe's row
        assert sorted(sweeps) == sorted([1, *(c.colloc.size for c in solver.components)])


class TestGradientReuse:
    def test_routes_take_the_first_variations_gradient_once_per_piece(self, annulus,
                                                                      annulus_mixed,
                                                                      monkeypatch):
        fields, data, calls = [], [], []
        bvp, bvp_data, gradient = hd.delta_n_bvp, hd.second_bvp_data, HarmonicField.gradient

        def first_variations(*args, **kwargs):
            solved = bvp(*args, **kwargs)
            fields.append(solved[0])
            return solved

        def recorded_data(*args, **kwargs):
            data.append(bvp_data(*args, **kwargs))
            return data[-1]

        def counted(field, points):
            calls.append((field, points))
            return gradient(field, points)

        monkeypatch.setattr(hd, "delta_n_bvp", first_variations)
        monkeypatch.setattr(hd, "second_bvp_data", recorded_data)
        monkeypatch.setattr(HarmonicField, "gradient", counted)
        family = generic_flow()
        tri = hd.delta2_n_routes(annulus, annulus_mixed, family, *ANNULUS_PROBES)
        assert np.isfinite(tri.err())
        udot, = fields
        # on the grid nodes, the block's gradient once per piece and no
        # single field's (its solve's check residual reads check nodes)
        grids = [grid.nodes for grid in annulus.grids]
        on_grids = [(field is udot, [points is nodes for nodes in grids].index(True))
                    for field, points in calls
                    if np.shares_memory(field.coefficients, udot.coefficients)
                    and any(points is nodes for nodes in grids)]
        assert on_grids == [(True, 0), (True, 1)]
        # the data equal those of y's own field, bit for bit
        solver = gr.base_solver(annulus, annulus_mixed)
        ev = solver.solve(np.stack(ANNULUS_PROBES))
        for got, want in zip(data[0], bvp_data(solver, family, ev[1], udot[1],
                                               hd.chi_sigma(annulus, family))):
            np.testing.assert_array_equal(got, want)


DIRICHLET_DOMAINS = {
    "disk": (geo.disk(1.0), geo.all_dirichlet(1), DISK_PROBES),
    "annulus-dn": (geo.annulus(0.5, 1.0), geo.MixedBoundary(("dirichlet", "neumann")),
                   ANNULUS_PROBES),
    "annulus-nd": (geo.annulus(0.5, 1.0), geo.MixedBoundary(("neumann", "dirichlet")),
                   ANNULUS_PROBES),
    "ellipse": (geo.elliptical_domain(1.0, 0.5), geo.all_dirichlet(1),
                (np.array([0.3, 0.0]), np.array([0.0, 0.2]))),
}
# |boundary form - interior rule| / (1 + max) at m=128 and 96 charges, over
# TANGENT_FAMILIES and five OpenBLAS core types at one and two threads: at
# most 5.2e-17 on the disk, 2.9e-12 on the annulus in either order and
# 6.1e-12 on the ellipse
DIRICHLET_BOUNDS = {"disk": 1e-15, "annulus-dn": 1e-11, "annulus-nd": 1e-11,
                    "ellipse": 3e-11}


@pytest.fixture(scope="module")
def dirichlet_setups():
    """Per domain: the registry-sized base solver and its pole block."""
    setups = {}
    for kind, (curve, mixed, (x, y)) in DIRICHLET_DOMAINS.items():
        solver = GreensSolver(geo.Domain(curve, m=128), mixed, GreensConfig(n_charges=96))
        setups[kind] = solver, solver.solve(np.stack([x, y]))
    return setups


class TestDirichletIntegral:
    """delta2_n_formula's volume term is a boundary integral, by Green's first identity."""

    @pytest.mark.parametrize("name", sorted(TANGENT_FAMILIES))
    @pytest.mark.parametrize("kind", sorted(DIRICHLET_DOMAINS))
    def test_the_formula_s_volume_term_is_the_interior_rule_dirichlet_integral(
            self, dirichlet_setups, kind, name):
        solver, ev = dirichlet_setups[kind]
        family = TANGENT_FAMILIES[name]
        udot, _ = hd.delta_n_bvp(solver, family, ev)
        interior = solver.domain.interior()
        gx, gy = udot.gradient(interior.nodes)
        expected = -2.0 * float(np.dot(interior.weights, np.einsum("ni,ni->n", gx, gy)))
        # with chi = 0 the formula is -2 (grad udot_x, grad udot_y) plus the
        # Neumann rho-terms, which are odd in udot: the even part is the
        # volume term as the formula computes it
        coeffs = hd.chi_sigma(solver.domain, family)
        no_chi = dataclasses.replace(coeffs, chi=[np.zeros_like(c) for c in coeffs.chi])
        flipped = HarmonicField(udot.charges, -udot.coefficients)
        volume = 0.5 * (hd.delta2_n_formula(solver, family, ev, udot, no_chi)
                        + hd.delta2_n_formula(solver, family, ev, flipped, no_chi))
        gap = abs(volume - expected) / (1.0 + max(abs(volume), abs(expected)))
        assert gap <= DIRICHLET_BOUNDS[kind]
        assert abs(expected) > 1e-4  # the term is not trivially zero

    def test_the_second_variation_routes_evaluate_no_interior_rule(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Domain.interior called")

        monkeypatch.setattr(geo.Domain, "interior", refuse)
        domain = geo.Domain(geo.annulus(0.5, 1.0), m=128)
        tri = hd.delta2_n_routes(domain, geo.MixedBoundary(("dirichlet", "neumann")),
                                 translation(), *ANNULUS_PROBES)
        assert _rel(tri.formula, tri.tangent) < 1e-7
        with pytest.raises(AssertionError, match="interior"):  # the patch is the one read
            domain.interior()


def _route_row_with_fd(domain, family, order):
    """The route triangle on the disk probes and the report row of it with
    the FD ladder of the same variation."""
    routes, fd = ((hd.delta_n_routes, hd.delta_n_fd) if order == 1
                  else (hd.delta2_n_routes, hd.delta2_n_fd))
    tri = routes(domain, geo.all_dirichlet(1), family, *DISK_PROBES)
    ladder = fd(hd.base_solver(domain, geo.all_dirichlet(1)), family, *DISK_PROBES)
    return tri, ladder, route_result(tri, fd=ladder)


class TestRouteDetails:
    def test_a_route_row_without_re_solves_carries_no_fd_record(self, disk):
        tri = hd.delta_n_routes(disk, geo.all_dirichlet(1), pert.TaylorFamily(pert.dilation()),
                                *DISK_PROBES)
        _, oracles, err, details = route_result(tri)
        assert oracles == {"bvp": tri.bvp, "tangent": tri.tangent}
        assert err == tri.err() == max(_rel(tri.formula, tri.bvp), _rel(tri.formula, tri.tangent),
                                       _rel(tri.bvp, tri.tangent))
        assert details == {**tri.solve_details(), "probe_warnings": []}

    def test_route_rows_carry_the_fd_order_and_warnings(self, disk):
        tri, ladder, (_, oracles, err, details) = _route_row_with_fd(
            disk, pert.TaylorFamily(pert.dilation()), 1)
        # err is the worst gap of the three routes and the FD value
        assert err == max(tri.err(), *(_rel(route, ladder.value)
                                        for route in (tri.formula, tri.bvp, tri.tangent)))
        assert 3.5 < details["fd_observed_order"] == ladder.observed_order < 4.5
        assert "fd_observed_order_reason" not in details
        assert details["fd_warnings"] == [] and details["probe_warnings"] == []
        # the route row's convergence table: the ladder and its estimates
        assert details["ladder"] == list(ladder.ladder)
        assert details["estimates"] == list(ladder.estimates)
        assert oracles == {"bvp": tri.bvp, "tangent": tri.tangent, "fd": ladder.value}

    def test_a_degenerate_fd_order_is_null_with_a_reason(self, disk):
        _, ladder, (_, _, _, details) = _route_row_with_fd(
            disk, pert.FlowFamily(pert.rotation()), 2)
        assert ladder.observed_order == np.inf
        assert details["fd_observed_order"] is None
        assert details["fd_observed_order_reason"] == "ladder differences at rounding level"


class TestDiskScalingOracle:
    """The closed-form dilation derivatives against finite differences of the
    image-charge formula ``disk_greens``, on their own ladders."""

    def test_the_closed_form_matches_differences_of_the_disk_greens_function(self):
        rng = np.random.default_rng(24)

        def point():
            radius, angle = 0.85 * np.sqrt(rng.uniform()), rng.uniform(0.0, TWO_PI)
            return radius * np.array([np.cos(angle), np.sin(angle)])

        pairs = []
        while len(pairs) < 200:
            x, y = point(), point()
            if np.linalg.norm(x - y) >= 0.1:
                pairs.append((x, y))
        pairs.append((point(), np.zeros(2)))
        # the worst gaps on these draws are the ladders' own errors: 1.9e-13
        # (first) and 1.9e-9 (second; up to 2.8e-9 over five other seeds)
        for order, ladder, bound in ((1, (1e-3, 5e-4), 1e-12), (2, (2e-2, 1e-2, 5e-3), 1e-8)):
            for x, y in pairs:
                fd = derivative_ladder(lambda t: disk_greens(x / (1 + t), y / (1 + t)),
                                       order=order, ladder=ladder).value
                assert _rel(hd.disk_dilation_delta_n(x, y, order), fd) <= bound, (order, x, y)

    def test_a_pole_at_the_centre_gives_plus_and_minus_one_over_two_pi(self):
        x = np.array([0.3, -0.5])
        assert hd.disk_dilation_delta_n(x, np.zeros(2), 1) == 1.0 / TWO_PI
        assert hd.disk_dilation_delta_n(x, np.zeros(2), 2) == -1.0 / TWO_PI
        with pytest.raises(ValueError, match="order"):
            hd.disk_dilation_delta_n(x, np.zeros(2), 3)

    def test_the_oracle_differences_nothing(self, monkeypatch):
        monkeypatch.setattr(hd, "derivative_ladder", None)
        assert np.isfinite(hd.disk_dilation_delta_n(*DISK_PROBES, order=2))


TRANSPORT_SHIFTS = [(1.0, 0.0), (0.6, -0.35)]
# |transport - route| on the registry discretization (m=128, 96 charges),
# worst over TRANSPORT_SHIFTS and over the five OpenBLAS kernels of the drift
# baseline (one thread; the kernels move these gaps by up to 10x); each bound
# is about 30x the gap.  D/N annulus: 2.2e-13 (first) and 1.0e-11 (second)
# from the formula, 5.5e-12 and 2.2e-10 from the tangent.  Disk: 2.2e-16.
# N/D annulus, first order: 9.7e-14 from the formula, 3.3e-12 from the tangent
TRANSPORT_BOUNDS = {("annulus-dn", 1): (7e-12, 2e-10), ("annulus-dn", 2): (3e-10, 7e-9),
                    ("disk", 1): (7e-15, 7e-15), ("disk", 2): (7e-15, 7e-15),
                    ("annulus-nd", 1): (3e-12, 1e-10)}


class TestTranslationTransport:
    """N_t(x, y) = N(x - ta, y - ta) under a translation: its t-derivatives
    from the base solve against the formula, the tangent and FD re-solves."""

    @pytest.mark.parametrize("shift", TRANSPORT_SHIFTS)
    @pytest.mark.parametrize("kind, order", sorted(TRANSPORT_BOUNDS))
    def test_the_transport_matches_the_formula_and_the_tangent(self, disk, annulus, kind,
                                                              order, shift):
        domain, mixed, (x, y) = {
            "disk": (disk, geo.all_dirichlet(1), DISK_PROBES),
            "annulus-dn": (annulus, geo.MixedBoundary(("dirichlet", "neumann")), ANNULUS_PROBES),
            "annulus-nd": (annulus, geo.MixedBoundary(("neumann", "dirichlet")), ANNULUS_PROBES),
        }[kind]
        family, config = pert.TaylorFamily(pert.translation(*shift)), GreensConfig(n_charges=96)
        transport = hd.translation_transport(hd.base_solver(domain, mixed, config), family, x, y)
        tri = (hd.delta_n_routes if order == 1 else hd.delta2_n_routes)(domain, mixed, family,
                                                                        x, y, config)
        to_formula, to_tangent = TRANSPORT_BOUNDS[kind, order]
        assert abs(transport[order - 1] - tri.formula) <= to_formula
        assert abs(transport[order - 1] - tri.tangent) <= to_tangent

    @pytest.mark.parametrize("shift", TRANSPORT_SHIFTS)
    def test_the_n_d_annulus_second_order_at_192_charges(self, shift):
        # at 96 charges the second BVP of these probes fails the 1e-4 check
        # gate (residual 7.5e-4); here the gaps are at most 1.3e-15 from the
        # formula and 4.1e-15 from the tangent over the five OpenBLAS kernels
        domain, mixed = geo.Domain(geo.annulus(0.5, 1.0), m=256), geo.MixedBoundary(
            ("neumann", "dirichlet"))
        family, config = pert.TaylorFamily(pert.translation(*shift)), GreensConfig(n_charges=192)
        second = hd.translation_transport(hd.base_solver(domain, mixed, config), family,
                                          *ANNULUS_PROBES)[1]
        tri = hd.delta2_n_routes(domain, mixed, family, *ANNULUS_PROBES, config)
        assert abs(second - tri.formula) <= 4e-14
        assert abs(second - tri.tangent) <= 1.2e-13

    def test_the_transport_matches_fd_re_solves_within_their_noise(self, annulus,
                                                                   annulus_mixed):
        # the registry annulus row's family; gaps at most 2.3e-11 (first) and
        # 1.5e-9 (second) over the five OpenBLAS kernels, the FD ladders' noise
        solver = hd.base_solver(annulus, annulus_mixed, GreensConfig(n_charges=96))
        x, y = ANNULUS_PROBES
        first, second = hd.translation_transport(solver, translation(), x, y)
        assert abs(first - hd.delta_n_fd(solver, translation(), x, y).value) <= 7e-10
        assert abs(second - hd.delta2_n_fd(solver, translation(), x, y).value) <= 5e-8

    def test_the_dipole_corrector_is_the_pole_derivative_of_the_corrector(self, annulus,
                                                                          annulus_mixed):
        # central differences of block-solved poles y +- h a sit 3.1e-6 (h = 1e-2)
        # and 3.1e-8 (h = 1e-3) from it: second order, on values near 0.07
        solver = hd.base_solver(annulus, annulus_mixed, GreensConfig(n_charges=96))
        y, a = ANNULUS_PROBES[1], np.array([0.6, -0.35])
        points = np.array([[0.0, 0.75], [0.6, 0.1], [-0.2, -0.7]])
        dipole = hd._dipole_corrector(solver, y, a).value(points)
        gaps = []
        for h in (1e-2, 1e-3):
            ahead, behind = solver.solve(np.stack([y + h * a, y - h * a])).corrector.value(points)
            gaps.append(np.max(np.abs((ahead - behind) / (2.0 * h) - dipole)))
        assert gaps[1] <= 1e-6 and 50.0 < gaps[0] / gaps[1] < 200.0

    @pytest.mark.parametrize("family", [
        pert.TaylorFamily(pert.dilation()), pert.FlowFamily(pert.rotation()),
        pert.TaylorFamily(pert.translation(1.0, 0.0), pert.translation(0.0, 1.0))],
        ids=["dilation", "rotation", "translation-with-R"])
    def test_a_family_that_is_not_a_translation_is_refused(self, annulus, annulus_mixed,
                                                          family):
        solver = hd.base_solver(annulus, annulus_mixed, GreensConfig(n_charges=96))
        with pytest.raises(ValueError, match="translation"):
            hd.translation_transport(solver, family, *ANNULUS_PROBES)

    def test_a_translation_flow_is_accepted(self, annulus, annulus_mixed):
        solver = hd.base_solver(annulus, annulus_mixed, GreensConfig(n_charges=96))
        flow = pert.FlowFamily(pert.translation(1.0, 0.0))
        assert (hd.translation_transport(solver, flow, *ANNULUS_PROBES)
                == hd.translation_transport(solver, translation(), *ANNULUS_PROBES))


def _route_rows(report):
    """The route rows of a report.json: those checked by the BVP and the tangent."""
    rows = json.loads(report.read_text())["cases"]
    return [row for row in rows if {"bvp", "tangent"} <= set(row["oracles"])]


class TestRouteRowErr:
    """A route row's err is the worst relative gap among its formula value
    and every oracle it reports, recomputed here from report.json."""

    @staticmethod
    def _assert_err_is_the_worst_gap(rows):
        for row in rows:
            values = [row["formula_value"], *row["oracles"].values()]
            worst = max(_rel(a, b) for a, b in itertools.combinations(values, 2))
            assert row["err"] == worst, row["case_id"]

    def test_the_registry_route_rows(self, tmp_path):
        assert cli.main(["run", "--suite", "hadamard", "--seed", "7",
                         "--out-dir", str(tmp_path)]) == 0
        rows = _route_rows(tmp_path / "report.json")
        assert sorted(row["case_id"] for row in rows) == [
            "hadamard-delta-n-triangle-annulus", "hadamard-delta-n-triangle-disk",
            "hadamard-delta2-n-triangle-annulus", "hadamard-delta2-n-triangle-disk",
            "hadamard-delta2-rotation-zero"]
        rotation = next(row for row in rows if row["case_id"] == "hadamard-delta2-rotation-zero")
        assert list(rotation["oracles"]) == ["bvp", "symmetry", "tangent"]
        assert rotation["oracles"]["symmetry"] == 0.0
        self._assert_err_is_the_worst_gap(rows)

    def test_custom_hadamard_route_rows(self, tmp_path):
        cases = [{"id": f"annulus-{variation}", "domain": {"name": "annulus", "r_in": 0.5,
                                                           "r_out": 1.0},
                  "mixed": ["dirichlet", "neumann"],
                  "family": {"kind": "taylor", "field": {"name": "dilation"}},
                  "probes": [[0.0, 0.75], [-0.74, -0.1]], "variation": variation}
                 for variation in ("first", "second")]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_hadamard": cases,
                                   "cases": [case["id"] for case in cases]}))
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        rows = _route_rows(tmp_path / "out" / "report.json")
        assert [row["case_id"] for row in rows] == ["annulus-first", "annulus-second"]
        assert all(list(row["oracles"]) == ["bvp", "tangent"] for row in rows)
        self._assert_err_is_the_worst_gap(rows)


@pytest.mark.parametrize("routes", [hd.delta_n_routes, hd.delta2_n_routes])
def test_the_routes_raise_when_the_pole_fit_fails_the_check_gate(routes):
    # the tangent fits the pole with no check of its own: the routes' pole
    # solve is the gate
    with pytest.raises(gr.GreensAccuracyError, match="check-node residual"):
        routes(geo.Domain(geo.disk(1.0), m=128), geo.all_dirichlet(1),
               pert.TaylorFamily(pert.dilation()), *DISK_PROBES,
               GreensConfig(fail_threshold=1e-300))


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
