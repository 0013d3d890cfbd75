import numpy as np
import pytest

from shapelab import cli
from shapelab import geometry as geo
from shapelab.integrands import IntegrandSpec, normal_scaled_integrand
from shapelab.perturbation import (FlowFamily, NormalFamily, PolynomialField, TaylorFamily,
                                   dilation, shear)

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_circle_arclength_exact(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        assert abs(grid.arclength() - TWO_PI) < 1e-12

    def test_circle_curvature_one(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        np.testing.assert_allclose(grid.curvature, 1.0, atol=1e-14)

    def test_ellipse_gauss_bonnet(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 256)
        assert abs(grid.integrate(grid.curvature) - TWO_PI) < 1e-10

    def test_ellipse_curvature_endpoint(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 256)
        # a/b^2 at theta = 0
        assert abs(grid.curvature[0] - 2.0) < 1e-13

    def test_frame_orthonormal(self):
        grid = geo.build_grid(geo.star(1.0, 0.2, 3), 128)
        np.testing.assert_allclose(np.einsum("ni,ni->n", grid.normal, grid.tangent),
                                   0.0, atol=1e-14)
        np.testing.assert_allclose(np.hypot(*grid.normal.T), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.hypot(*grid.tangent.T), 1.0, atol=1e-14)

    @pytest.mark.parametrize("family", [
        TaylorFamily(shear(0.5), PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25})),
        FlowFamily(PolynomialField({(0, 2, 0): 0.3, (1, 1, 1): 0.25, (1, 0, 0): -0.2})),
        TaylorFamily(dilation())], ids=["shear-with-R", "quadratic-flow", "dilation"])
    def test_frame_rates_are_the_t_derivatives_of_the_pushed_normal(self, family):
        curve, thetas, h = geo.star(1.0, 0.2, 3), TWO_PI * np.arange(64) / 64, 1e-3
        normal = {t: geo.pushed_frame(curve, thetas, family, t).normal @ (1.0, 1j)
                  for t in (-2 * h, -h, 0.0, h, 2 * h)}
        nu, rate, acceleration = geo.frame_rates(curve, thetas, family)
        np.testing.assert_allclose(nu, normal[0.0], rtol=0, atol=1e-15)
        first = (-normal[2 * h] + 8 * normal[h] - 8 * normal[-h] + normal[-2 * h]) / (12 * h)
        second = (-normal[2 * h] + 16 * normal[h] - 30 * normal[0.0] + 16 * normal[-h]
                  - normal[-2 * h]) / (12 * h * h)
        # 4th-order stencils at h = 1e-3: 2.1e-13 and 6.2e-10 at worst
        np.testing.assert_allclose(rate, first, rtol=0, atol=2e-12)
        np.testing.assert_allclose(acceleration, second, rtol=0, atol=6e-9)

    def test_annulus_total_turning_is_genus_weighted(self):
        curve = geo.annulus(0.5, 1.0)
        total = sum(geo.build_grid(c, 128).integrate(geo.build_grid(c, 128).curvature)
                    for c in curve.components)
        assert abs(total) < 1e-10  # 2*pi*(1 - g) with one hole

    def test_hole_normal_points_into_hole(self):
        curve = geo.annulus(0.5, 1.0)
        grid = geo.build_grid(curve.components[1], 64)
        j = 0
        assert np.dot(grid.normal[j], grid.nodes[j]) < 0

    def test_refinement_leaves_frame_unchanged(self):
        coarse = geo.build_grid(geo.ellipse(2.0, 1.0), 128)
        fine = geo.build_grid(geo.ellipse(2.0, 1.0), 256)
        np.testing.assert_allclose(coarse.curvature, fine.curvature[::2], atol=1e-10)
        np.testing.assert_allclose(coarse.normal, fine.normal[::2], atol=1e-10)

    @pytest.mark.parametrize("m", [8, 48, 100])
    def test_bad_node_counts_rejected(self, m):
        with pytest.raises(geo.GeometryError):
            geo.build_grid(geo.circle(1.0), m)

    def test_degenerate_parameterization_rejected(self):
        # r(theta) = 1 + cos(theta) pinches to a cusp at theta = pi (the star
        # with eps = 1, which geo.star rejects)
        cusp = geo.FourierCurve([[0.5, 0.0], [1.0, 0.0], [0.5, 0.0]],
                                [[0.0, 0.0], [0.0, 1.0], [0.0, 0.5]])
        with pytest.raises(geo.GeometryError, match="node"):
            geo.build_grid(cusp, 64)

    def test_pushed_speed_collapse_names_the_node(self):
        # T_1 = diag(0, 1) sends x'(theta) = (-sin, cos) to (0, cos): zero at theta = pi/2
        squash = TaylorFamily(PolynomialField({(0, 1, 0): -1.0}))
        thetas = TWO_PI * np.arange(16) / 16
        with pytest.raises(geo.GeometryError, match="at node 4$"):
            geo.pushed_frame(geo.circle(1.0), thetas, squash, 1.0)

    @pytest.mark.parametrize("curve", [geo.ellipse(2.0, 1.0), geo.star(1.0, 0.2, 3),
                                       geo.circle(0.5).reversed()])
    def test_grid_is_the_unpushed_frame(self, curve):
        grid = geo.build_grid(curve, 128)
        frame = geo.pushed_frame(curve, grid.thetas)
        nodes, tangent, normal, speed = frame.nodes, frame.tangent, frame.normal, frame.speed
        for got, want in ((grid.nodes, nodes), (grid.tangent, tangent),
                          (grid.normal, normal), (grid.speed, speed),
                          (grid.curvature, curve.curvature(grid.thetas)),
                          (grid.weights, (TWO_PI / 128) * speed)):
            np.testing.assert_array_equal(got, want)

    def test_a_point_set_of_no_angles_has_empty_weights(self):
        frame = geo.pushed_frame(geo.circle(1.0), np.empty(0))
        assert frame.size == 0 and frame.weights.shape == (0,)
        # points far from a collar project no foot, so the feet are no angles
        grid = geo.build_grid(geo.circle(1.0), 64)
        family = NormalFamily(grid, np.ones(64))
        far = np.array([[3.0, 0.0], [0.0, -4.0]])
        np.testing.assert_array_equal(family.velocity(far), 0.0)


class TestTangentialCalculus:
    def test_constant_has_zero_gradient(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        np.testing.assert_allclose(geo.tangential_grad(grid, np.full(64, 3.7)),
                                   0.0, atol=1e-13)

    def test_unit_circle_arclength_equals_angle(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        df = geo.tangential_grad(grid, np.sin(grid.thetas))
        np.testing.assert_allclose(df, np.cos(grid.thetas), atol=1e-12)

    def test_integration_by_parts_band_limited(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 128)
        rng = np.random.default_rng(5)

        def trig(rng):
            out = np.zeros(grid.size)
            for k in range(1, 9):
                out += rng.normal() * np.cos(k * grid.thetas)
                out += rng.normal() * np.sin(k * grid.thetas)
            return out

        f, h = trig(rng), trig(rng)
        residual = grid.integrate(geo.tangential_grad(grid, f) * h
                                  + f * geo.tangential_grad(grid, h))
        assert abs(residual) < 1e-10

    def test_weighted_integration_by_parts(self):
        # <dF/ds, g dH/ds> = -<F, d/ds(g dH/ds)> on a closed component
        grid = geo.build_grid(geo.star(1.0, 0.2, 3), 256)
        rng = np.random.default_rng(9)
        f = np.cos(2 * grid.thetas) + 0.5 * np.sin(5 * grid.thetas)
        h = np.sin(3 * grid.thetas) - 0.2 * np.cos(grid.thetas)
        g = 1.0 + 0.3 * np.cos(4 * grid.thetas) + 0.1 * rng.normal() * np.sin(grid.thetas)
        lhs = grid.integrate(geo.tangential_grad(grid, f) * g * geo.tangential_grad(grid, h))
        rhs = -grid.integrate(f * geo.tangential_grad(grid, g * geo.tangential_grad(grid, h)))
        assert abs(lhs - rhs) < 1e-9

    def test_laplacian_on_circle(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        second = geo.tangential_grad(grid, geo.tangential_grad(grid, np.cos(grid.thetas)))
        np.testing.assert_allclose(second, -np.cos(grid.thetas), atol=1e-11)

    def test_laplacian_integrates_to_zero(self):
        grid = geo.build_grid(geo.star(1.0, 0.2, 3), 128)
        f = np.exp(np.sin(grid.thetas))
        assert abs(grid.integrate(geo.tangential_grad(grid, geo.tangential_grad(grid, f)))) < 1e-10


class TestSecondFundamentalForm:
    def test_normal_in_kernel(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 64)
        form = geo.second_fundamental_form(grid, grid.normal, grid.tangent)
        assert form.shape == (64,)
        np.testing.assert_allclose(form, 0.0, atol=1e-12)

    def test_circle_tangent_pair(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        np.testing.assert_allclose(
            geo.second_fundamental_form(grid, grid.tangent, grid.tangent), 1.0, rtol=1e-12)

    def test_ellipse_anchor(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 256)
        value = geo.second_fundamental_form(grid, grid.tangent, grid.tangent)[0]
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_bilinear_symmetry(self):
        grid = geo.build_grid(geo.star(1.0, 0.2, 3), 128)
        rng = np.random.default_rng(11)
        xi, eta = rng.normal(size=(2, 128, 2))
        form = geo.second_fundamental_form(grid, xi, eta)
        np.testing.assert_allclose(form, geo.second_fundamental_form(grid, eta, xi),
                                   rtol=1e-15)
        assert form[11] == pytest.approx(grid.curvature[11] * np.dot(xi[11], grid.tangent[11])
                                         * np.dot(eta[11], grid.tangent[11]))


class TestCollar:
    def test_restriction_reproduces_nodal_values(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        values = np.cos(grid.thetas) + 0.3 * np.sin(3 * grid.thetas)
        ext = geo.collar_extend(grid, values)
        np.testing.assert_allclose(ext.evaluate(grid.nodes), values, atol=1e-12)

    def test_constant_in_normal(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        ext = geo.collar_extend(grid, np.cos(grid.thetas))
        inner = 0.9 * grid.nodes[5]
        outer = 1.1 * grid.nodes[5]
        assert ext.evaluate(inner[None, :])[0] == pytest.approx(
            ext.evaluate(outer[None, :])[0], abs=1e-12)

    def test_normal_divergence_tubular_formula(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        ext = geo.collar_extend(grid, np.ones(64))
        pts = 1.1 * grid.nodes[:8]
        np.testing.assert_allclose(ext.normal_divergence(pts), 1.0 / 1.1, atol=1e-12)

    def test_normal_divergence_matches_curvature_on_ellipse(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 256)
        ext = geo.collar_extend(grid, np.ones(256))
        np.testing.assert_allclose(ext.normal_divergence(grid.nodes[::16]),
                                   grid.curvature[::16], atol=1e-8)

    def test_collar_width_restricted_by_curvature(self):
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 64)  # max curvature 2
        with pytest.raises(geo.GeometryError):
            geo.CollarExtension(grid, np.ones(64), 0.3)

    def test_gradient_is_tangential(self):
        # central differences of the extension across and along the circle
        grid = geo.build_grid(geo.circle(1.0), 64)
        ext = geo.collar_extend(grid, np.sin(grid.thetas))
        pts, h = grid.nodes[:8], 1e-5

        def slope(direction):
            return (ext.evaluate(pts + h * direction)
                    - ext.evaluate(pts - h * direction)) / (2 * h)

        np.testing.assert_allclose(slope(grid.normal[:8]), 0.0, atol=1e-10)
        np.testing.assert_allclose(slope(grid.tangent[:8]), np.cos(grid.thetas[:8]),
                                   atol=1e-8)

    def test_scaled_field_divergence(self):
        # div(c nu~) of the collar normal scaled by c, against central differences
        grid = geo.build_grid(geo.ellipse(2.0, 1.0), 128)
        ext = geo.collar_extend(grid, np.ones(128))
        a = normal_scaled_integrand(IntegrandSpec.from_expression("1 + x1*x2"), ext)
        pts, h = 1.05 * grid.nodes[::16], 1e-5
        fd = sum((a.value(pts + h * e)[:, i] - a.value(pts - h * e)[:, i]) / (2 * h)
                 for i, e in enumerate(np.eye(2)))
        np.testing.assert_allclose(a.divergence(pts), fd, atol=1e-7)


class TestChargeRings:
    @pytest.mark.parametrize("n_charges,factor", [
        (32, 1.6), (96, 1.6), (98, 10.0 ** (20.0 / 98)), (192, 10.0 ** (20.0 / 192))])
    def test_each_ring_dilates_its_component_by_the_rule(self, n_charges, factor):
        # R = min(1.6, 10 ** (20 / n_charges)): 1.6 up to 97 charges, then
        # R ** n_charges = 1e20
        domain = geo.Domain(geo.annulus(0.5, 1.0), m=64)
        outer, hole = domain.charge_rings(n_charges)
        np.testing.assert_allclose(np.hypot(*outer.T), factor, rtol=1e-14)
        np.testing.assert_allclose(np.hypot(*hole.T), 0.5 / factor, rtol=1e-14)
        angles = np.arctan2(outer[:, 1], outer[:, 0]) % TWO_PI
        np.testing.assert_allclose(angles, TWO_PI * (np.arange(n_charges) + 0.25) / n_charges,
                                   rtol=0, atol=1e-13)
        assert not (outer.flags.writeable or hole.flags.writeable)
        assert domain.charge_rings(n_charges)[0] is outer  # built once per count


class TestInteriorQuadrature:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_gauss_legendre_rule_matches_leggauss_and_is_exact(self, n):
        from numpy.polynomial.legendre import leggauss
        x, w = geo._gauss_legendre(n)
        want_x, want_w = leggauss(n)
        # leggauss's weights are within 5e-15 of the exact ones for n <= 64,
        # the rule's within 3.4e-16 (against 40-digit Newton iterates)
        np.testing.assert_allclose(x, want_x, rtol=0, atol=2.3e-16)
        np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-14)
        for k in range(2 * n):
            assert abs(w @ x ** k - (1 + (-1) ** k) / (k + 1)) <= 5e-15, k

    def test_disk_area(self):
        rule = geo.interior_quadrature(geo.disk(1.0), 128)
        assert abs(np.sum(rule.weights) - np.pi) < 1e-10

    def test_annulus_area(self):
        rule = geo.interior_quadrature(geo.annulus(0.5, 1.0), 128)
        assert abs(np.sum(rule.weights) - 0.75 * np.pi) < 1e-10

    def test_odd_moment_vanishes(self):
        rule = geo.interior_quadrature(geo.disk(1.0), 128)
        assert abs(rule.integrate(rule.nodes[:, 0])) < 1e-12

    def test_nodes_strictly_inside(self):
        rule = geo.interior_quadrature(geo.annulus(0.5, 1.0), 128)
        radii = np.hypot(*rule.nodes.T)
        assert radii.min() > 0.5 and radii.max() < 1.0

    def test_two_holes_rejected(self):
        comps = (geo.circle(3.0), geo.circle(0.5, (1.0, 0.0)).reversed(),
                 geo.circle(0.5, (-1.0, 0.0)).reversed())
        with pytest.raises(geo.GeometryError):
            geo.interior_quadrature(geo.BoundaryCurve(comps), 128)

    def test_a_domain_s_rule_follows_its_grid(self):
        domain = geo.Domain(geo.disk(1.0), m=64)
        rule = domain.interior()
        assert len(rule.weights) == 16 * 64 and domain.interior() is rule
        # each of the 16 radii carries the grid's own 64 angles
        angles = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0]).reshape(16, 64) % TWO_PI
        np.testing.assert_allclose(angles, np.broadcast_to(domain.grids[0].thetas, (16, 64)),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("curve", [geo.star_domain(1.0, 0.2, 3),
                                       geo.elliptical_domain(2.0, 1.0), geo.annulus(0.5, 1.0)],
                             ids=["star", "ellipse", "annulus"])
    def test_default_rule_matches_refined_rule(self, curve):
        # the rule of m = 128 against that of 2m, on the monomials of degree
        # <= 6, relative to the integral of their modulus: at most 6.6e-15
        # measured on SkylakeX, 1.3e-14 on the Prescott kernel (the ellipse)
        rule, fine = geo.interior_quadrature(curve, 128), geo.interior_quadrature(curve, 256)
        assert len(rule.weights) == 32 * 128
        for px in range(7):
            for py in range(7 - px):
                coarse = rule.integrate(rule.nodes[:, 0] ** px * rule.nodes[:, 1] ** py)
                monomial = fine.nodes[:, 0] ** px * fine.nodes[:, 1] ** py
                scale = fine.integrate(np.abs(monomial))
                assert abs(coarse - fine.integrate(monomial)) <= 2e-13 * scale, (px, py)


class TestMixedBoundary:
    def test_pure_neumann_rejected(self):
        with pytest.raises(geo.GeometryError, match="Dirichlet"):
            geo.MixedBoundary(("neumann", "neumann"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(geo.GeometryError):
            geo.MixedBoundary(("robin",))

    def test_assignment(self):
        mixed = geo.MixedBoundary(("dirichlet", "neumann"))
        assert mixed.is_dirichlet(0) and not mixed.is_dirichlet(1)


class TestCurvePreconditions:
    @pytest.mark.parametrize("build, message", [
        (lambda: geo.circle(-1.0), "circle radius must be a finite positive number, not -1.0"),
        (lambda: geo.circle(np.inf), "circle radius must be a finite positive number, not inf"),
        (lambda: geo.circle(True), "circle radius must be a finite positive number, not True"),
        (lambda: geo.circle(1.0, (True, 0.0)), "center must be two finite numbers"),
        (lambda: geo.disk(1.0, (0.5, 0.0, 7.0)), "center must be two finite numbers"),
        (lambda: geo.ellipse(np.nan, 1.0), "ellipse semi-axis a must be a finite positive"),
        (lambda: geo.ellipse(2.0, 0.0), "ellipse semi-axis b must be a finite positive"),
        (lambda: geo.elliptical_domain(2.0, 1.0, (0.5,)), "center must be two finite numbers"),
        (lambda: geo.annulus(0.5, 1.0, (0.0, np.nan)), "center must be two finite numbers"),
        (lambda: geo.annulus(-0.5, 1.0), "annulus needs 0 < r_inner < r_outer, not r_inner=-0.5"),
        (lambda: geo.star(0.0, 0.2, 3), "star r0 must be a finite positive number, not 0.0"),
        (lambda: geo.star(1.0, -1.0, 3), "star eps must be a number with |eps| < 1, not -1.0"),
        (lambda: geo.star(1.0, np.nan, 3), "star eps must be a number with |eps| < 1"),
        (lambda: geo.star(1.0, 0.2, True), "star frequency k must be an integer >= 1, not True"),
        (lambda: geo.star(1.0, 0.2, 2.5), "star frequency k must be an integer >= 1, not 2.5"),
        (lambda: geo.star_domain(1.0, 0.2, 0), "star frequency k must be an integer >= 1, not 0"),
    ], ids=["circle-radius", "circle-radius-inf", "circle-radius-boolean",
            "circle-center-boolean", "disk-center", "ellipse-a", "ellipse-b",
            "ellipse-center", "annulus-center", "annulus-radii", "star-r0", "star-eps",
            "star-eps-nan", "star-k-boolean", "star-k-fraction", "star-k-zero"])
    def test_a_bad_parameter_is_a_geometry_error_naming_it(self, build, message):
        with pytest.raises(geo.GeometryError) as info:
            build()
        assert message in str(info.value)

    def test_an_integral_frequency_reads_as_an_integer(self):
        curve, want = geo.star(1.0, 0.2, 3.0), geo.star(1.0, 0.2, 3)
        np.testing.assert_array_equal(curve.cos_coeffs, want.cos_coeffs)
        np.testing.assert_array_equal(curve.sin_coeffs, want.sin_coeffs)


class TestCurveLibrary:
    def test_star_matches_radial_formula(self):
        curve = geo.star(1.0, 0.2, 3)
        theta = np.linspace(0, TWO_PI, 11)
        r = 1.0 + 0.2 * np.cos(3 * theta)
        expected = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        np.testing.assert_allclose(curve.point(theta), expected, atol=1e-14)

    def test_make_curve_fourier(self):
        # a config domain is built by the CLI's curve table
        curve = cli.read_object("domain", {"name": "fourier", "components": [
            {"cos": [[0, 0], [1.5, 0]], "sin": [[0, 0], [0, 1.5]]}]}, cli.CURVES)
        assert abs(curve.area() - np.pi * 1.5 ** 2) < 1e-12

    def test_orientation_validation(self):
        with pytest.raises(geo.GeometryError):
            geo.BoundaryCurve((geo.circle(1.0).reversed(),))
        with pytest.raises(geo.GeometryError):
            geo.BoundaryCurve((geo.circle(1.0), geo.circle(0.5)))

    @pytest.mark.parametrize("m", [64, 65])
    def test_fourier_basis_keeps_the_bits_of_one_call(self, m):
        # the interpolant as one expression, matrices built per call
        values = np.random.default_rng(m).normal(size=m)
        theta = TWO_PI * (np.arange(96) + 0.3) / 96
        coeff = np.fft.rfft(values) / m
        kt = np.outer(theta, np.arange(1, (m + 1) // 2))
        n = kt.shape[1]
        want = np.full(theta.shape, coeff[0].real)
        want += 2.0 * (np.cos(kt) @ coeff[1:n + 1].real - np.sin(kt) @ coeff[1:n + 1].imag)
        if m % 2 == 0:
            want += coeff[-1].real * np.cos((m // 2) * theta)
        basis = geo.FourierBasis.at(m, theta)
        np.testing.assert_array_equal(basis(values), want)
        np.testing.assert_array_equal(basis(2.0 * values),
                                      geo.fourier_interpolate(2.0 * values, theta))
        with pytest.raises(ValueError, match="samples"):
            basis(values[:-1])

    def test_fourier_interpolation_band_limited_exact(self):
        values = np.cos(geo.build_grid(geo.circle(1.0), 64).thetas * 3)
        theta = np.array([0.1, 1.7, 4.2])
        np.testing.assert_allclose(geo.fourier_interpolate(values, theta),
                                   np.cos(3 * theta), atol=1e-13)
