import functools
import itertools

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from shapelab import cli
from shapelab import geometry as geo
from shapelab import perturbation as pert
from shapelab._fd import derivative_ladder
from shapelab.cases import CaseSettings, build_registry

PTS = np.array([[0.3, -0.2], [0.7, 0.5], [-0.4, 0.1]])


class TestFlowMap:
    def test_zero_field_is_identity(self):
        fam = pert.FlowFamily(pert.zero_field())
        np.testing.assert_allclose(fam.map(PTS, 0.2), PTS)
        np.testing.assert_allclose(fam.map_jacobian(PTS, 0.2),
                                   np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_dilation_flow_exponential(self):
        fam = pert.FlowFamily(pert.dilation(), step=5e-3)
        np.testing.assert_allclose(fam.map(PTS, 0.1), np.exp(0.1) * PTS, atol=1e-10)
        np.testing.assert_allclose(fam.map_jacobian(PTS, 0.1),
                                   np.exp(0.1) * np.broadcast_to(np.eye(2), (3, 2, 2)),
                                   atol=1e-10)

    def test_rotation_flow_preserves_volume(self):
        fam = pert.FlowFamily(pert.rotation(), step=5e-3)
        jac = fam.map_jacobian(PTS, 0.2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        np.testing.assert_allclose(det, 1.0, atol=1e-12)

    def test_t_max_enforced(self):
        fam = pert.FlowFamily(pert.dilation())
        with pytest.raises(pert.PerturbationError):
            fam.map(PTS, 0.3)

    @pytest.mark.parametrize("step", [0.0, -1e-2, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, step):
        # step=0 divided by zero, and a negative step took a single RK4 step
        with pytest.raises(pert.PerturbationError, match="step"):
            pert.FlowFamily(pert.rotation(), step=step)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_time_must_be_finite(self, t):
        fam = pert.FlowFamily(pert.rotation())
        for call in (fam.map, fam.map_jacobian, fam.map_and_jacobian):
            with pytest.raises(pert.PerturbationError, match="finite"):
                call(PTS, t)

    def test_step_count_overflow(self):
        fam = pert.FlowFamily(pert.dilation(), step=1e-9)
        with pytest.raises(pert.PerturbationError, match="overflow"):
            fam.map(PTS, 0.1)

    def test_acceleration_matches_kinematic_second_derivative(self):
        v = pert.PolynomialField({(0, 2, 0): 0.7, (0, 0, 1): -0.4,
                                  (1, 1, 1): 0.5, (1, 0, 0): 0.2})
        fam = pert.FlowFamily(v, step=1e-3)
        x0 = PTS[:1]
        h = 1e-2
        second = (-fam.map(x0, 2 * h) + 16 * fam.map(x0, h) - 30 * x0
                  + 16 * fam.map(x0, -h) - fam.map(x0, -2 * h)) / (12 * h * h)
        np.testing.assert_allclose(fam.acceleration(x0), second, atol=1e-9)


class TestDeterminantDerivatives:
    def test_dilation_taylor_closed_form(self):
        fam = pert.TaylorFamily(pert.dilation())
        d1, d2 = pert.det_derivatives(fam, PTS)
        np.testing.assert_allclose(d1, 2.0)
        np.testing.assert_allclose(d2, 2.0)

    def test_rotation_second_derivative_exactly_zero(self):
        fam = pert.FlowFamily(pert.rotation())
        d1, d2 = pert.det_derivatives(fam, PTS)
        assert np.all(d1 == 0.0) and np.all(d2 == 0.0)

    def test_zero_velocity_leaves_divergence_of_acceleration(self):
        r_field = pert.PolynomialField({(0, 1, 0): 0.3, (1, 0, 1): -0.8})
        fam = pert.TaylorFamily(pert.zero_field(), r_field)
        d1, d2 = pert.det_derivatives(fam, PTS)
        np.testing.assert_allclose(d1, 0.0)
        np.testing.assert_allclose(d2, -0.5)

    def test_polynomial_flow_matches_fd(self):
        rng = np.random.default_rng(3)
        fam = pert.FlowFamily(pert.random_polynomial_field(rng, 2, 0.3), step=2e-3)
        x0 = np.array([[0.2, 0.1]])

        def det(t):
            j = fam.map_jacobian(x0, t)[0]
            return j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]

        a1, a2 = pert.det_derivatives(fam, x0)
        assert abs(a1[0] - derivative_ladder(det, 1, (0.02, 0.01)).value) < 1e-9
        assert abs(a2[0] - derivative_ladder(det, 2, (0.02, 0.01)).value) < 1e-9


class TestInverseJacobianDerivatives:
    def test_dilation_taylor_closed_form(self):
        fam = pert.TaylorFamily(pert.dilation())
        j1, j2 = pert.inverse_jacobian_derivatives(fam, PTS[:1])
        np.testing.assert_allclose(j1[0], -np.eye(2))
        np.testing.assert_allclose(j2[0], 2 * np.eye(2))

    def test_zero_velocity(self):
        r_field = pert.PolynomialField({(0, 0, 1): 1.0, (1, 1, 0): 0.5})
        fam = pert.TaylorFamily(pert.zero_field(), r_field)
        j1, j2 = pert.inverse_jacobian_derivatives(fam, PTS[:1])
        np.testing.assert_allclose(j1[0], 0.0)
        np.testing.assert_allclose(j2[0], -r_field.jacobian(PTS[:1])[0])

    def test_random_taylor_matches_fd(self):
        rng = np.random.default_rng(11)
        fam = pert.TaylorFamily(pert.random_polynomial_field(rng, 2, 0.4),
                                pert.random_polynomial_field(rng, 2, 0.4))
        x0 = np.array([[0.25, -0.35]])
        a1, a2 = pert.inverse_jacobian_derivatives(fam, x0)
        for i in range(2):
            for j in range(2):
                def entry(t):
                    return np.linalg.inv(fam.map_jacobian(x0, t)[0])[i, j]
                f1 = derivative_ladder(entry, 1, (0.02, 0.01)).value
                f2 = derivative_ladder(entry, 2, (0.02, 0.01)).value
                assert abs(a1[0, i, j] - f1) < 1e-8
                assert abs(a2[0, i, j] - f2) < 1e-8


def integer_draw(rng, d):
    """Integer DS and DR in [-3, 3]: every minor coefficient is a dyadic rational."""
    return (rng.integers(-3, 4, size=(d, d)).astype(float),
            rng.integers(-3, 4, size=(d, d)).astype(float))


class TestMinorExpansion:
    def test_zero_matrices_give_zero_remainder(self):
        zero = np.zeros((3, 3))
        np.testing.assert_array_equal(pert.minor_polynomial(zero, zero, 1, 1), [1, 0, 0, 0, 0])
        np.testing.assert_array_equal(pert._predicted_minor(zero, zero, 1, 1), [1, 0, 0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_polynomial_is_the_submatrix_determinant(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(5):
            ds, dr = integer_draw(rng, d)
            i, j = (int(k) for k in rng.integers(0, d, size=2))
            coeffs = pert.minor_polynomial(ds, dr, i, j)
            assert coeffs.shape == (2 * d - 1,)
            for t in (-0.7, -0.05, 0.01, 0.3, 1.5):
                full = np.eye(d) + t * ds + 0.5 * t * t * dr
                det = np.linalg.det(np.delete(np.delete(full, i, axis=0), j, axis=1))
                assert abs(P.polyval(t, coeffs) - det) <= 1e-12 * max(1.0, abs(det))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_the_expansion_equals_the_polymul_products_bit_for_bit(self, d):
        # np.convolve is the product P.polymul takes before trimming zeros
        rng = np.random.default_rng(70 + d)
        ds, dr = rng.uniform(-1.0, 1.0, size=(2, d, d))
        for i, j in itertools.product(range(d), repeat=2):
            entries = np.delete(np.delete(np.stack([np.eye(d), ds, 0.5 * dr], axis=-1),
                                          i, axis=0), j, axis=1)
            reference = np.zeros(2 * d - 1)
            for perm in itertools.permutations(range(d - 1)):
                inversions = sum(p > q for a, p in enumerate(perm) for q in perm[a + 1:])
                term = functools.reduce(P.polymul, (entries[a, b] for a, b in enumerate(perm)),
                                        np.ones(1))
                reference[:term.size] += (-1.0) ** inversions * term
            np.testing.assert_array_equal(pert.minor_polynomial(ds, dr, i, j), reference)

    @pytest.mark.parametrize("d,i,j", [(3, 1, 1), (3, 0, 2), (4, 2, 0), (2, 0, 1)])
    def test_random_matrices_cubic_remainder(self, d, i, j):
        # the model is the exact polynomial up to t^2, so the remainder is O(t^3)
        ds, dr = integer_draw(np.random.default_rng(d * 10 + i + j), d)
        np.testing.assert_array_equal(pert._predicted_minor(ds, dr, i, j),
                                      pert.minor_polynomial(ds, dr, i, j)[:3])

    def test_registry_row_fails_when_the_model_drops_the_half_on_dr(self, monkeypatch):
        # the row's 20 seeded draws match exactly, and fail under the mutation
        case = next(c for c in build_registry() if c.case_id == "jacobian-minor-expansion")
        row = case.run(CaseSettings(seed=7))
        assert row.passed and row.err == 0.0
        model = pert._predicted_minor
        # DR enters the model only as DR/2, so doubling DR drops the half
        monkeypatch.setattr(pert, "_predicted_minor",
                            lambda ds, dr, i, j: model(ds, 2.0 * dr, i, j))
        row = case.run(CaseSettings(seed=7))
        assert not row.passed and row.err >= 0.5

    def test_off_diagonal_linear_coefficient(self):
        # the t-coefficient of the (i,j) minor is (+/-) dS^j/dx_i
        rng = np.random.default_rng(8)
        d, i, j = 3, 0, 2
        ds, _ = integer_draw(rng, d)
        t = 1e-7
        full = np.eye(d) + t * ds
        sub = np.delete(np.delete(full, i, axis=0), j, axis=1)
        linear = np.linalg.det(sub) / t
        expected = (-1.0) ** (j - i + 1) * ds[j, i]
        assert abs(linear - expected) < 1e-5
        assert pert.minor_polynomial(ds, np.zeros((d, d)), i, j)[1] == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(pert.PerturbationError):
            pert.minor_polynomial(np.zeros((3, 3)), np.zeros((2, 2)), 0, 0)


class TestBoundaryData:
    def setup_method(self):
        self.grid = geo.build_grid(geo.circle(1.0), 64)

    def test_dilation_is_purely_normal(self):
        data = pert.boundary_data(pert.TaylorFamily(pert.dilation()), self.grid)
        np.testing.assert_allclose(data.normal_velocity, 1.0, atol=1e-14)
        np.testing.assert_allclose(data.tangential_velocity, 0.0, atol=1e-14)

    def test_rotation_is_purely_tangential(self):
        data = pert.boundary_data(pert.FlowFamily(pert.rotation()), self.grid)
        np.testing.assert_allclose(data.normal_velocity, 0.0, atol=1e-14)
        np.testing.assert_allclose(np.hypot(*data.tangential_velocity.T), 1.0,
                                   atol=1e-14)

    def test_translation_normal_speed(self):
        data = pert.boundary_data(pert.TaylorFamily(pert.translation(1, 0)), self.grid)
        np.testing.assert_allclose(data.normal_velocity, np.cos(self.grid.thetas),
                                   atol=1e-14)

    def test_flow_normal_acceleration_is_advective(self):
        fam = pert.FlowFamily(pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0}))
        data = pert.boundary_data(fam, self.grid)
        np.testing.assert_allclose(
            data.normal_acceleration,
            pert.advective_normal_component(data, self.grid), atol=1e-14)

    def test_flow_acceleration_row_fails_when_the_advection_uses_dv_transposed(
            self, monkeypatch):
        case = next(c for c in build_registry()
                    if c.case_id == "jacobian-flow-acceleration-identity")
        row = case.run(CaseSettings(seed=7))
        assert row.passed and row.err <= 1e-10

        def transposed(data, grid):  # [(Dv)^T v].nu in place of [(Dv) v].nu
            adv = np.einsum("nji,nj->ni", data.velocity_jacobian, data.velocity)
            return np.einsum("ni,ni->n", adv, grid.normal)

        monkeypatch.setattr(pert, "advective_normal_component", transposed)
        row = case.run(CaseSettings(seed=7))
        assert not row.passed and row.err >= 0.5


class TestNormalFamily:
    def setup_method(self):
        self.grid = geo.build_grid(geo.circle(1.0), 64)
        self.rho = 0.4 + 0.1 * np.cos(2 * self.grid.thetas)
        self.family = pert.NormalFamily(self.grid, self.rho)

    def test_boundary_velocity_is_rho_nu(self):
        data = pert.boundary_data(self.family, self.grid)
        np.testing.assert_allclose(data.normal_velocity, self.rho, atol=1e-12)
        np.testing.assert_allclose(data.tangential_velocity, 0.0, atol=1e-12)
        np.testing.assert_allclose(data.acceleration, 0.0)

    def test_map_moves_nodes_normally(self):
        t = 0.05
        moved = self.family.map(self.grid.nodes, t)
        expected = self.grid.nodes + t * self.rho[:, None] * self.grid.normal
        np.testing.assert_allclose(moved, expected, atol=1e-12)

    def test_velocity_jacobian_matches_fd(self):
        pts = 1.05 * self.grid.nodes[:6]
        analytic = self.family.velocity_jacobian(pts)
        h = 1e-6
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            fd = (self.family.velocity(pts + dp) - self.family.velocity(pts - dp)) / (2 * h)
            np.testing.assert_allclose(analytic[:, :, k], fd, atol=1e-6)

    def test_far_points_do_not_move(self):
        far = np.array([[0.1, 0.0], [0.0, -0.2]])
        np.testing.assert_allclose(self.family.map(far, 0.1), far)

    def test_velocity_is_continuous_across_the_collar_edge(self):
        # the taper reaches zero where the support ends, on both sides of the curve
        grid = geo.build_grid(geo.circle(1.0), 128)
        family = pert.NormalFamily(grid, np.full(128, 0.3))
        h = family.collar.half_width
        u = np.linspace(0.8, 1.2, 401)  # offsets in units of h, across the edge
        for side in (1.0, -1.0):
            pts = (1.0 + side * h * u)[:, None] * grid.nodes[5]
            s = np.linalg.norm(family.velocity(pts), axis=1)
            ds = np.abs(family.velocity_jacobian(pts)).max(axis=(1, 2))
            assert np.max(np.abs(np.diff(s))) < 5e-4
            assert np.max(np.abs(np.diff(ds))) < 1e-2
            assert s[199] < 1e-6 and ds[199] < 1e-3  # u = 0.999
            assert not s[201:].any() and not ds[201:].any()  # u >= 1.001


class TestFieldLibrary:
    def test_make_field_names(self):
        # a config velocity field is built by the CLI's field table
        for name in ("dilation", "rotation", "translation", "shear"):
            assert cli.read_object("field", {"name": name}, cli.FIELDS) is not None
        field = cli.read_object("field", {"name": "polynomial",
                                          "terms": {"0,2,0": 1.0, "1,1,1": -0.5}}, cli.FIELDS)
        np.testing.assert_allclose(field(np.array([[2.0, 3.0]])),
                                   [[4.0, -3.0]])

    @pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_names_its_monomial(self, coeff):
        with pytest.raises(pert.PerturbationError, match=r"\(0, 1, 0\)"):
            pert.PolynomialField({(1, 2, 0): 1.0, (0, 1, 0): coeff})

    def test_degree_cap(self):
        with pytest.raises(pert.PerturbationError):
            pert.PolynomialField({(0, 4, 0): 1.0})

    def test_second_derivative_matches_fd(self):
        rng = np.random.default_rng(2)
        field = pert.random_polynomial_field(rng, degree=3)
        pts = rng.uniform(-1, 1, size=(4, 2))
        analytic = field.second_derivative(pts)
        h = 1e-5
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = h
            fd = (field.jacobian(pts + dp) - field.jacobian(pts - dp)) / (2 * h)
            np.testing.assert_allclose(analytic[:, :, :, j], fd, atol=1e-8)


# Reference copies of the per-monomial field loop and the einsum RK4 that the
# coefficient table and the packed RK4 state replaced.  Their sums run in
# another order, so they agree bit for bit where every sum is exact in any
# order, and otherwise within the rounding bounds below.

EPS = np.finfo(float).eps

def _ref_pow(base, exponent):
    return np.ones_like(base) if exponent == 0 else base ** exponent


def _ref_value(field, points):
    out = np.zeros_like(points)
    x, y = points[:, 0], points[:, 1]
    for (comp, px, py), c in field.terms.items():
        out[:, comp] += c * _ref_pow(x, px) * _ref_pow(y, py)
    return out


def _ref_jacobian(field, points):
    x, y = points[:, 0], points[:, 1]
    out = np.zeros((points.shape[0], 2, 2))
    for (comp, px, py), c in field.terms.items():
        if px:
            out[:, comp, 0] += c * px * _ref_pow(x, px - 1) * _ref_pow(y, py)
        if py:
            out[:, comp, 1] += c * py * _ref_pow(x, px) * _ref_pow(y, py - 1)
    return out


def _ref_second_derivative(field, points):
    x, y = points[:, 0], points[:, 1]
    out = np.zeros((points.shape[0], 2, 2, 2))
    for (comp, px, py), c in field.terms.items():
        if px >= 2:
            out[:, comp, 0, 0] += c * px * (px - 1) * _ref_pow(x, px - 2) * _ref_pow(y, py)
        if px >= 1 and py >= 1:
            mixed = c * px * py * _ref_pow(x, px - 1) * _ref_pow(y, py - 1)
            out[:, comp, 0, 1] += mixed
            out[:, comp, 1, 0] += mixed
        if py >= 2:
            out[:, comp, 1, 1] += c * py * (py - 1) * _ref_pow(x, px) * _ref_pow(y, py - 2)
    return out


def _ref_flow(field, points, t, step):
    def rhs(x, jac):
        return (_ref_value(field, x),
                np.einsum("nij,njk->nik", _ref_jacobian(field, x), jac))

    n_steps = max(1, int(np.ceil(abs(t) / step)))
    h = t / n_steps
    x = points.copy()
    jac = np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()
    for _ in range(n_steps):
        k1 = rhs(x, jac)
        k2 = rhs(x + 0.5 * h * k1[0], jac + 0.5 * h * k1[1])
        k3 = rhs(x + 0.5 * h * k2[0], jac + 0.5 * h * k2[1])
        k4 = rhs(x + h * k3[0], jac + h * k3[1])
        x = x + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        jac = jac + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return x, jac


def _ref_taylor(s_field, r_field, points, t):
    eye = np.broadcast_to(np.eye(2), (points.shape[0], 2, 2))
    return (points + t * _ref_value(s_field, points) + 0.5 * t * t * _ref_value(r_field, points),
            eye + t * _ref_jacobian(s_field, points) + 0.5 * t * t * _ref_jacobian(r_field, points))


def _rounding_bounds(field, points):
    """(K+2) eps sum|c x^a y^b| per entry of the value, Jacobian and Hessian,
    K the largest number of monomials in one component."""
    k = max(sum(comp == i for comp, _, _ in field.terms) for i in (0, 1))
    absolute = pert.PolynomialField({key: abs(c) for key, c in field.terms.items()})
    points = np.abs(points)
    return [(k + 2) * EPS * ref(absolute, points)
            for ref in (_ref_value, _ref_jacobian, _ref_second_derivative)]


def _exact_field(rng, degree):
    """Integer coefficients in [-8, 8] on every monomial up to ``degree``."""
    return pert.PolynomialField({(comp, px, py): float(rng.integers(-8, 9))
                                 for comp in (0, 1) for px in range(degree + 1)
                                 for py in range(degree + 1 - px)})


# the named library fields and the field of the flow-acceleration row: one
# monomial in each row of value and Jacobian
ONE_TERM = {"dilation": pert.dilation(), "rotation": pert.rotation(),
            "translation": pert.translation(0.6, -0.35), "shear": pert.shear(0.37),
            "x1^2, x1 x2": pert.PolynomialField({(0, 2, 0): 1.0, (1, 1, 1): 1.0})}


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_field_matches_per_monomial_loop(self, seed):
        rng = np.random.default_rng(seed)
        field = pert.random_polynomial_field(rng, degree=1 + seed % 3)
        pts = rng.uniform(-1.5, 1.5, size=(50, 2))
        refs = (_ref_value, _ref_jacobian, _ref_second_derivative)
        evals = (field(pts), field.jacobian(pts), field.second_derivative(pts))
        for ref, value, bound in zip(refs, evals, _rounding_bounds(field, pts)):
            assert np.all(np.abs(value - ref(field, pts)) <= bound)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_field_equals_per_monomial_loop_where_sums_are_exact(self, degree):
        # integer coefficients at points k/16: every product and sum is exact
        rng = np.random.default_rng(20 + degree)
        pts = rng.integers(-24, 25, size=(60, 2)) / 16.0
        for _ in range(4):
            field = _exact_field(rng, degree)
            np.testing.assert_array_equal(field(pts), _ref_value(field, pts))
            np.testing.assert_array_equal(field.jacobian(pts), _ref_jacobian(field, pts))
            np.testing.assert_array_equal(field.second_derivative(pts),
                                          _ref_second_derivative(field, pts))

    @pytest.mark.parametrize("step", [1e-2, 2e-3])
    @pytest.mark.parametrize("t", [0.05, -0.0125, 0.2, 0.02 / 3])
    def test_flow_matches_einsum_rk4(self, t, step):
        # the gap to the reference RK4 sits 10^3 below its truncation error (the
        # change under a half step), or, where that error is itself at rounding
        # level, within one rounding of the state per step
        rng = np.random.default_rng(11)
        n_steps = int(np.ceil(abs(t) / step))
        for _ in range(3):
            field = pert.random_polynomial_field(rng, degree=3)
            pts = rng.uniform(-1.0, 1.0, size=(40, 2))
            got = pert.FlowFamily(field, step=step).map(pts, t, with_jacobian=True)
            for new, ref, half in zip(got, _ref_flow(field, pts, t, step),
                                      _ref_flow(field, pts, t, step / 2)):
                truncation = np.abs(ref - half).max()
                rounding = n_steps * EPS * np.abs(ref).max()
                assert np.abs(new - ref).max() <= max(1e-3 * truncation, rounding)

    @pytest.mark.parametrize("name", sorted(ONE_TERM))
    def test_one_term_fields_equal_the_reference_flow_and_taylor_maps(self, name):
        # the table contraction adds zeros to the one per-term product
        rng = np.random.default_rng(9)
        field, pts = ONE_TERM[name], rng.uniform(-1.0, 1.0, size=(40, 2))
        taylor = pert.TaylorFamily(field, ONE_TERM["rotation"])
        for t in (0.05, -0.0125, 0.2):
            flow = pert.FlowFamily(field, step=2e-3).map(pts, t, with_jacobian=True)
            for got, ref in zip(flow, _ref_flow(field, pts, t, 2e-3)):
                np.testing.assert_array_equal(got, ref)
            for got, ref in zip(taylor.map_and_jacobian(pts, t),
                                _ref_taylor(field, ONE_TERM["rotation"], pts, t)):
                np.testing.assert_array_equal(got, ref)

    def test_flow_at_t_zero_is_the_identity_without_evaluating_the_field(self, monkeypatch):
        calls = []
        contract = pert.PolynomialField._contract

        def counted(self, *args, **kwargs):
            calls.append(args)
            return contract(self, *args, **kwargs)

        monkeypatch.setattr(pert.PolynomialField, "_contract", counted)
        fam = pert.FlowFamily(pert.random_polynomial_field(np.random.default_rng(4), degree=3))
        for t in (0.0, -0.0):
            img, jac = fam.map(PTS, t, with_jacobian=True)
            np.testing.assert_array_equal(img, PTS)
            np.testing.assert_array_equal(jac, np.broadcast_to(np.eye(2), (3, 2, 2)))
            np.testing.assert_array_equal(fam.map_jacobian(PTS, t), jac)
            assert img is not PTS
        assert calls == []
        fam.map(PTS, 1e-3)
        assert len(calls) == 4  # one evaluation per RK4 stage

    def test_single_point_inputs(self):
        rng = np.random.default_rng(6)
        field = _exact_field(rng, 3)
        pts = rng.integers(-24, 25, size=(5, 2)) / 16.0
        families = [pert.FlowFamily(ONE_TERM["rotation"], step=2e-3),
                    pert.TaylorFamily(field, _exact_field(rng, 2))]
        for point in pts:
            for x in (point, point[None]):
                np.testing.assert_array_equal(field(x), _ref_value(field, point[None]))
                np.testing.assert_array_equal(field.jacobian(x),
                                              _ref_jacobian(field, point[None]))
            for fam in families:
                img, jac = fam.map_and_jacobian(point, 0.05)
                assert img.shape == (1, 2) and jac.shape == (1, 2, 2)
                np.testing.assert_array_equal(fam.map(point[None], 0.05), img)
                np.testing.assert_array_equal(fam.map_jacobian(point, 0.05), jac)
        for got, ref in zip(families[0].map_and_jacobian(pts[:1], 0.05),
                            _ref_flow(ONE_TERM["rotation"], pts[:1], 0.05, 2e-3)):
            np.testing.assert_array_equal(got, ref)

    def test_map_and_jacobian_equals_separate_calls(self):
        rng = np.random.default_rng(5)
        grid = geo.build_grid(geo.circle(1.0), 64)
        families = [
            pert.TaylorFamily(pert.random_polynomial_field(rng, degree=3),
                              pert.random_polynomial_field(rng, degree=2)),
            pert.FlowFamily(pert.random_polynomial_field(rng, degree=3), step=2e-3),
            pert.NormalFamily(grid, 0.3 + 0.1 * np.cos(3 * grid.thetas)),
        ]
        pts = np.vstack([1.02 * grid.nodes[::4], rng.uniform(-0.5, 0.5, size=(8, 2))])
        for fam in families:
            for t in (0.03, -0.01):
                img, jac = fam.map_and_jacobian(pts, t)
                np.testing.assert_array_equal(img, fam.map(pts, t))
                np.testing.assert_array_equal(jac, fam.map_jacobian(pts, t))
