import numpy as np
import pytest

from shapelab import geometry as geo
from shapelab import liouville as lv
from shapelab import perturbation as pert
from shapelab._fd import derivative_ladder
from shapelab.cases import variation_result
from shapelab.integrands import (IntegrandSpec, VectorIntegrandSpec,
                                 normal_scaled_integrand,
                                 random_polynomial_integrand)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def disk():
    return geo.Domain(geo.disk(1.0), m=128)


@pytest.fixture(scope="module")
def ellipse():
    return geo.Domain(geo.elliptical_domain(2.0, 1.0), m=128)


def dilation():
    return pert.TaylorFamily(pert.dilation())


def translation(dx=1.0, dy=0.0):
    return pert.TaylorFamily(pert.translation(dx, dy))


def fd(kind, domain, family, integrand, order):
    return lv.fd_reference(kind, domain, family, integrand, order=order).value


def rel_gap(value, reference):
    return abs(value - reference) / (1.0 + abs(value))


class TestFirstVolume:
    def test_dilated_disk_area_rate(self, disk):
        one = IntegrandSpec.constant(1.0)
        assert abs(lv.first_volume(disk, dilation(), one) - TWO_PI) < 1e-12
        assert abs(fd("volume", disk, dilation(), one, 1) - TWO_PI) < 1e-8

    def test_rotation_flow_gives_zero(self, disk):
        value = lv.first_volume(disk, pert.FlowFamily(pert.rotation()),
                                IntegrandSpec.constant(1.0))
        assert abs(value) < 1e-12

    def test_translated_disk_moment(self, disk):
        value = lv.first_volume(disk, translation(), IntegrandSpec.from_expression("x1"))
        assert abs(value - np.pi) < 1e-12

    def test_folding_deformation_rejected(self, disk):
        squash = pert.TaylorFamily(pert.PolynomialField({(0, 1, 0): -1.0}))
        with pytest.raises(pert.PerturbationError, match="folds"):
            lv.pullback_volume_integral(disk, squash, IntegrandSpec.constant(1.0), 1.5)


class TestSecondVolume:
    def test_dilated_disk_area_curvature(self, disk):
        one = IntegrandSpec.constant(1.0)
        assert abs(lv.second_volume(disk, dilation(), one) - TWO_PI) < 1e-12
        assert abs(fd("volume", disk, dilation(), one, 2) - TWO_PI) < 1e-6

    def test_rotation_flow_gives_zero(self, disk):
        value = lv.second_volume(disk, pert.FlowFamily(pert.rotation()),
                                 IntegrandSpec.constant(1.0))
        assert abs(value) < 1e-12

    def test_ellipse_flow_against_fd(self, ellipse):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
        c = IntegrandSpec.from_expression("x2**2")
        assert rel_gap(lv.second_volume(ellipse, fam, c), fd("volume", ellipse, fam, c, 2)) < 1e-4

    def test_pure_transport_matches_fd_tightly(self, disk):
        fam, c = translation(0.8, -0.4), IntegrandSpec.from_expression("x1**2*x2")
        assert rel_gap(lv.second_volume(disk, fam, c), fd("volume", disk, fam, c, 2)) < 1e-6


class TestFirstArea:
    def test_dilated_circle_perimeter_rate(self, disk):
        value = lv.first_area(disk, dilation(), IntegrandSpec.constant(1.0))
        assert abs(value - TWO_PI) < 1e-12

    def test_rotation_with_invariant_integrand(self, ellipse):
        fam = pert.FlowFamily(pert.rotation())
        c = IntegrandSpec.from_expression("x1**2 + x2**2")
        assert abs(lv.first_area(ellipse, fam, c)) < 1e-10
        assert abs(fd("area", ellipse, fam, c, 1)) < 1e-8

    def test_translation_preserves_perimeter(self, disk):
        assert abs(lv.first_area(disk, translation(), IntegrandSpec.constant(1.0))) < 1e-12


class TestSecondArea:
    def test_dilated_perimeter_is_linear(self, disk):
        assert abs(lv.second_area(disk, dilation(), IntegrandSpec.constant(1.0))) < 1e-12

    def test_rotation_gives_zero(self, disk):
        value = lv.second_area(disk, pert.FlowFamily(pert.rotation()),
                               IntegrandSpec.constant(1.0))
        assert abs(value) < 1e-12

    def test_star_translation_against_fd(self):
        dom = geo.Domain(geo.star_domain(1.0, 0.2, 3), m=128)
        one = IntegrandSpec.constant(1.0)
        value = lv.second_area(dom, translation(), one)
        assert rel_gap(value, fd("area", dom, translation(), one, 2)) < 1e-3
        assert abs(value) < 1e-10

    def test_dilation_with_quadratic_integrand(self, disk):
        # boundary integral of x2^2 over the dilated circle is pi (1+t)^3
        value = lv.second_area(disk, dilation(), IntegrandSpec.from_expression("x2**2"))
        assert abs(value - 6 * np.pi) < 1e-12

    def test_generic_flow_nonconstant_integrand(self, ellipse):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
        c = IntegrandSpec.from_expression("x2**2")
        assert rel_gap(lv.second_area(ellipse, fam, c), fd("area", ellipse, fam, c, 2)) < 1e-6

    def test_time_dependent_integrand(self, ellipse):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
        c = IntegrandSpec.from_expression("x2**2 + t*x1*x2 + 0.3*t**2*x1")
        assert rel_gap(lv.second_area(ellipse, fam, c), fd("area", ellipse, fam, c, 2)) < 1e-6


class TestBoundaryFlux:
    def test_position_field_under_dilation(self, disk):
        a = VectorIntegrandSpec.from_expressions("x1", "x2")
        assert abs(lv.boundary_flux_first(disk, dilation(), a) - 4 * np.pi) < 1e-12
        assert abs(lv.boundary_flux_second(disk, dilation(), a) - 4 * np.pi) < 1e-12

    def test_divergence_free_static_field(self, ellipse):
        a = VectorIntegrandSpec.from_expressions("x2", "x1")
        fam = pert.TaylorFamily(pert.PolynomialField({(0, 1, 0): 0.4, (1, 0, 1): -0.7}))
        assert abs(lv.boundary_flux_first(ellipse, fam, a)) < 1e-12
        assert abs(fd("flux", ellipse, fam, a, 1)) < 1e-8
        assert abs(lv.boundary_flux_second(ellipse, fam, a)) < 1e-12

    def test_reduces_to_first_area_for_normal_field(self, disk):
        c = IntegrandSpec.from_expression("1 + 0.3*x1 + 0.2*x2**2")
        fam = pert.TaylorFamily(pert.PolynomialField(
            {(0, 1, 0): 0.5, (0, 0, 1): -0.2, (1, 0, 0): 0.3, (1, 1, 1): 0.4}))
        collar = geo.collar_extend(disk.grids[0], np.ones(disk.grids[0].size))
        a = normal_scaled_integrand(c, collar)
        assert abs(lv.first_area(disk, fam, c) - lv.boundary_flux_first(disk, fam, a)) < 1e-9

    def test_random_polynomial_field_on_ellipse(self, ellipse):
        a = VectorIntegrandSpec.from_expressions(
            "0.4*x1**2 + 0.3*x2 + 0.2*t*x1", "0.5*x1*x2 - 0.1*x1 + 0.3*t")
        fam = pert.FlowFamily(pert.PolynomialField({(0, 0, 1): -0.5, (1, 1, 0): 0.3}))
        assert rel_gap(lv.boundary_flux_second(ellipse, fam, a),
                       fd("flux", ellipse, fam, a, 2)) < 1e-3

    def test_second_flux_requires_declared_data(self, disk):
        collar = geo.collar_extend(disk.grids[0], np.ones(disk.grids[0].size))
        a = normal_scaled_integrand(IntegrandSpec.constant(1.0), collar)
        with pytest.raises(ValueError):
            lv.boundary_flux_second(disk, dilation(), a)


class TestNuDot:
    def test_dilation_constant_speed(self, disk):
        values = lv.nu_dot(disk, dilation())[0]
        np.testing.assert_allclose(values, 0.0, atol=1e-13)

    def test_translation_closed_form_and_fd(self, disk):
        fam = translation()
        values = lv.nu_dot(disk, fam)[0]
        grid = disk.grids[0]
        expected = np.sin(grid.thetas)[:, None] * grid.tangent
        np.testing.assert_allclose(values, expected, atol=1e-12)
        fd = lv.nu_dot_fd(disk, fam)[0].value
        assert np.max(np.abs(values - fd)) < 1e-5

    def test_orthogonal_to_normal(self, ellipse):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
        values = lv.nu_dot(ellipse, fam)[0]
        inner = np.einsum("ni,ni->n", values, ellipse.grids[0].normal)
        np.testing.assert_allclose(inner, 0.0, atol=1e-13)
        fd = lv.nu_dot_fd(ellipse, fam)[0].value
        assert np.max(np.abs(values - fd)) < 1e-5


class TestFDReference:
    def test_linear_integral_first_derivative_exact(self):
        res = derivative_ladder(lambda t: 3.0 + 2.5 * t, order=1)
        assert abs(res.value - 2.5) < 1e-12
        assert res.observed_order == np.inf

    def test_quadratic_integral_second_derivative_exact(self):
        res = derivative_ladder(lambda t: 1.0 + t + 4.0 * t * t, order=2)
        assert abs(res.value - 8.0) < 1e-9

    def test_dilated_area_ladder(self):
        res = derivative_ladder(lambda t: np.pi * (1 + t) ** 2, order=1)
        assert abs(res.value - TWO_PI) < 1e-10
        assert res.observed_order >= 2

    def test_bad_ladder_rejected(self):
        with pytest.raises(ValueError):
            derivative_ladder(lambda t: t, order=1, ladder=(1e-3, 1e-2))

    def test_observed_order_for_analytic_integral(self, disk):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 0.5, (1, 1, 1): 0.4}))
        res = lv.fd_reference("volume", disk, fam,
                              IntegrandSpec.from_expression("x1**2"), order=1)
        assert res.observed_order is None or res.observed_order > 2.0


def _count_integrations(monkeypatch):
    calls = []
    integrate = pert.FlowFamily._integrate

    def counted(self, points, t):
        calls.append((t, np.asarray(points).tobytes()))
        return integrate(self, points, t)

    monkeypatch.setattr(pert.FlowFamily, "_integrate", counted)
    return calls


class TestFlowIntegrationCount:
    """Each oracle abscissa integrates the flow once for both T_t and DT_t."""

    FIELD = {(0, 2, 0): 0.5, (1, 1, 1): 0.4}

    def test_volume_oracle(self, monkeypatch, disk):
        calls = _count_integrations(monkeypatch)
        fam = pert.FlowFamily(pert.PolynomialField(self.FIELD))
        lv.fd_reference("volume", disk, fam, IntegrandSpec.constant(1.0), order=2)
        # 0, +-h and +-2h of the three-step ladder: 9 distinct abscissae
        assert len(calls) == len({t for t, _ in calls}) == 9

    def test_pushed_area_integral(self, monkeypatch):
        calls = _count_integrations(monkeypatch)
        fam = pert.FlowFamily(pert.PolynomialField(self.FIELD))
        annulus = geo.Domain(geo.annulus(0.5, 1.0), m=32)
        lv.pushed_area_integral(annulus, fam, IntegrandSpec.constant(1.0), 0.03)
        assert [t for t, _ in calls] == [0.03, 0.03]  # one per boundary component

    def test_nu_dot_fd_integrates_each_point_set_once(self, monkeypatch):
        calls = _count_integrations(monkeypatch)
        fam = pert.FlowFamily(pert.PolynomialField(self.FIELD))
        lv.nu_dot_fd(geo.Domain(geo.disk(1.0), m=16), fam)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("curve,count", [(geo.disk(1.0), 52),
                                             (geo.star_domain(1.0, 0.2, 3), 70),
                                             (geo.annulus(0.5, 1.0), 98)])
    def test_nu_dot_fd_takes_one_integration_per_projection_step(self, monkeypatch,
                                                                 curve, count):
        # Gauss-Newton: its steps and the final frame per t and component, over
        # the 8 abscissae of the default first ladder; the disk takes 4 to 7
        # steps, more at larger |t|
        calls = _count_integrations(monkeypatch)
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}),
                              step=1e-3)
        lv.nu_dot_fd(geo.Domain(curve, m=128), fam)
        assert len(calls) == count

    def test_every_integration_runs_inside_map_or_map_jacobian(self, monkeypatch, disk):
        # perfbench times the flow layer as the FlowFamily.map and
        # map_jacobian calls; a fused caller must not integrate around them.
        open_calls, outside = [0], []
        integrate = pert.FlowFamily._integrate

        def counted(self, points, t):
            if not open_calls[0]:
                outside.append(t)
            return integrate(self, points, t)

        def entered(method):
            def wrapper(*args, **kwargs):
                open_calls[0] += 1
                try:
                    return method(*args, **kwargs)
                finally:
                    open_calls[0] -= 1
            return wrapper

        monkeypatch.setattr(pert.FlowFamily, "_integrate", counted)
        for name in ("map", "map_jacobian"):
            monkeypatch.setattr(pert.FlowFamily, name, entered(getattr(pert.FlowFamily, name)))
        fam = pert.FlowFamily(pert.PolynomialField(self.FIELD))
        lv.fd_reference("volume", disk, fam, IntegrandSpec.constant(1.0), order=1)
        lv.pushed_area_integral(disk, fam, IntegrandSpec.constant(1.0), 0.03)
        lv.nu_dot_fd(geo.Domain(geo.disk(1.0), m=16), fam)
        geo.pushed_frame(disk.grids[0].curve, disk.grids[0].thetas, fam, 0.03)
        assert outside == []


class TestRandomizedProperty:
    @pytest.mark.parametrize("seed", range(3))
    def test_first_derivatives_against_richardson(self, seed):
        rng = np.random.default_rng(100 + seed)
        dom = geo.Domain(geo.star_domain(1.0, 0.15, 3), m=128)
        fam = pert.FlowFamily(pert.random_polynomial_field(rng, 2, 0.25))
        c = random_polynomial_integrand(rng, degree=2, time_degree=1)
        for op, kind in ((lv.first_volume, "volume"), (lv.first_area, "area")):
            assert rel_gap(op(dom, fam, c), fd(kind, dom, fam, c, 1)) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_second_derivatives_against_five_point(self, seed):
        rng = np.random.default_rng(200 + seed)
        dom = geo.Domain(geo.elliptical_domain(1.5, 1.0), m=128)
        fam = pert.TaylorFamily(pert.random_polynomial_field(rng, 2, 0.3),
                                pert.random_polynomial_field(rng, 2, 0.3))
        c = random_polynomial_integrand(rng, degree=2, time_degree=2)
        for op, kind in ((lv.second_volume, "volume"), (lv.second_area, "area")):
            assert rel_gap(op(dom, fam, c), fd(kind, dom, fam, c, 2)) < 1e-2


class TestVariationResult:
    def test_err_is_judged_against_the_analytic_value(self, disk):
        one = IntegrandSpec.constant(1.0)
        value, oracles, err, details = variation_result(
            "first_volume", disk, dilation(), one, analytic=TWO_PI + 1e-3)
        reference = lv.fd_reference("volume", disk, dilation(), one, order=1)
        assert value == lv.first_volume(disk, dilation(), one)
        assert err == abs(value - (TWO_PI + 1e-3)) / (1.0 + abs(value)) > 1e-4
        assert oracles["analytic"] == TWO_PI + 1e-3
        assert oracles == {"analytic": TWO_PI + 1e-3, "fd_richardson": reference.value}
        # the dilated disk's area is quadratic in t, so the ladder differences
        # are rounding: the observed order is null, with its reason
        assert details == {"ladder": list(reference.ladder),
                           "estimates": list(reference.estimates),
                           "fd_observed_order": None,
                           "fd_observed_order_reason": "ladder differences at rounding level",
                           "fd_warnings": []}

    def test_err_is_judged_against_fd_without_an_analytic_value(self, ellipse):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
        a = VectorIntegrandSpec.from_expressions("x1*x2", "x2**2 + t*x1")
        ladder = (4e-2, 2e-2, 1e-2)
        value, oracles, err, details = variation_result(
            "flux_second", ellipse, fam, a, ladder=ladder)
        reference = lv.fd_reference("flux", ellipse, fam, a, order=2, ladder=ladder)
        assert value == lv.boundary_flux_second(ellipse, fam, a)
        assert "analytic" not in oracles
        assert oracles["fd_richardson"] == reference.value
        assert err == rel_gap(value, reference.value) < 1e-3
        assert details["ladder"] == list(ladder)

    def test_a_non_monotone_ladder_keeps_its_warning(self, disk):
        # c = t^5 - 2000 t^7 on a translated disk: the first-derivative
        # stencil's error -4h^4 (1 - 2000 * 5h^2) vanishes at the coarsest
        # step h = 1e-2, so that estimate lands nearest the extrapolation
        c = np.zeros((1, 1, 8))
        c[0, 0, 5], c[0, 0, 7] = 1.0, -2000.0
        integrand = IntegrandSpec.from_coefficients(c)
        *_, details = variation_result("first_volume", disk, translation(), integrand)
        reference = lv.fd_reference("volume", disk, translation(), integrand, order=1)
        assert not reference.monotone
        assert details["fd_warnings"] == list(reference.warnings) == [
            "non-monotone ladder (cancellation suspected)"]
        assert details["fd_observed_order"] == reference.observed_order
