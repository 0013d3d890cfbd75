import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shapelab
from shapelab import geometry as geo
from shapelab.integrands import (IntegrandSpec, VectorIntegrandSpec, monomial_powers,
                                 monomials, normal_scaled_integrand,
                                 random_polynomial_integrand)

PTS = np.array([[0.4, -0.3], [1.2, 0.8]])
EPS = np.finfo(float).eps


class TestIntegrandSpec:
    @pytest.mark.parametrize("expr", [
        "x1**2*x2 + t*x1 + 0.5*t**2",
        "sin(x1)*cos(x2)*exp(0.2*t)",
        "1",
    ])
    def test_spot_check_under_tolerance(self, expr):
        spec = IntegrandSpec.from_expression(expr)
        assert spec.spot_check(np.random.default_rng(0)) < 1e-6

    def test_values_and_derivatives(self):
        spec = IntegrandSpec.from_expression("x1**2 - x2**2 + t*x1*x2")
        np.testing.assert_allclose(spec.value(PTS, 0.0),
                                   PTS[:, 0] ** 2 - PTS[:, 1] ** 2)
        np.testing.assert_allclose(spec.dt(PTS, 0.0), PTS[:, 0] * PTS[:, 1])
        np.testing.assert_allclose(spec.dtt(PTS, 0.0), 0.0)
        np.testing.assert_allclose(spec.gradient(PTS, 0.0),
                                   np.stack([2 * PTS[:, 0], -2 * PTS[:, 1]], axis=-1))
        np.testing.assert_allclose(spec.hessian(PTS, 0.0)[0],
                                   np.array([[2.0, 0.0], [0.0, -2.0]]))
        np.testing.assert_allclose(spec.dt_gradient(PTS, 0.0),
                                   PTS[:, ::-1])

    def test_constant_broadcasts(self):
        spec = IntegrandSpec.constant(2.5)
        assert spec.value(PTS, 1.0).shape == (2,)
        assert spec.gradient(PTS, 0.0).shape == (2, 2)
        np.testing.assert_allclose(spec.gradient(PTS, 0.0), 0.0)

    def test_random_polynomial_reproducible(self):
        a = random_polynomial_integrand(np.random.default_rng(4))
        b = random_polynomial_integrand(np.random.default_rng(4))
        np.testing.assert_allclose(a.value(PTS, 0.3), b.value(PTS, 0.3))


class TestCoefficientIntegrand:
    EVALUATORS = ("value", "dt", "dtt", "gradient", "hessian", "dt_gradient")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sympy_expression(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1, 1, size=(4, 3, 3))
        expr = " + ".join(f"({float(c)!r})*x1**{px}*x2**{py}*t**{pt}"
                          for (px, py, pt), c in np.ndenumerate(coeffs))
        poly = IntegrandSpec.from_coefficients(coeffs)
        symbolic = IntegrandSpec.from_expression(expr)
        pts = rng.uniform(-1.5, 1.5, size=(20, 2))
        for t in (0.3, -0.07):
            for name in self.EVALUATORS:
                got = getattr(poly, name)(pts, t)
                want = getattr(symbolic, name)(pts, t)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * np.max(np.abs(want)))

    def test_random_polynomial_draws_one_uniform_per_monomial(self):
        rng = np.random.default_rng(9)
        spec = random_polynomial_integrand(rng, degree=2, time_degree=2, scale=0.5)
        ref = np.random.default_rng(9)
        draws = 0.5 * ref.uniform(-1, 1, size=6 * 3)
        assert rng.bit_generator.state == ref.bit_generator.state
        # draws in (px, py, pt) order, total degree <= 2 in space
        monomials = [(px, py, pt) for px in range(3) for py in range(3 - px)
                     for pt in range(3)]
        x, y, t = 0.7, -0.4, 0.2
        expected = sum(c * x ** px * y ** py * t ** pt
                       for c, (px, py, pt) in zip(draws, monomials))
        assert abs(spec.value(np.array([[x, y]]), t)[0] - expected) < 1e-14

    # the registry cases whose integrands are fixed polynomials
    POLYNOMIAL_CASES = ("liouville-disk-translation-moment", "liouville-flux-first-dilation",
                        "liouville-flux-second-dilation", "liouville-area-flux-consistency",
                        "greens-representation", "liouville-random-first-2",
                        "liouville-random-first-5", "liouville-random-second-2")

    def test_import_and_registry_leave_sympy_unloaded(self):
        src = Path(shapelab.__file__).resolve().parents[1]
        code = ("import sys, shapelab; from shapelab.cli import build_registry; "
                "from shapelab.cases import CaseSettings; "
                f"wanted = {self.POLYNOMIAL_CASES!r}; "
                "rows = [c.run(CaseSettings(seed=7)) for c in build_registry() "
                "if c.case_id in wanted]; "
                "print(len(rows), all(r.passed for r in rows), 'sympy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"{len(self.POLYNOMIAL_CASES)} True False"


class TestMonomialBasis:
    """Polynomial integrands and velocity fields evaluate on one total-degree
    monomial basis, which replaced numpy's polyvander2d tensor basis."""

    def test_cli_import_leaves_numpy_polynomial_unloaded(self):
        # only the interior rule's Gauss-Legendre nodes import it, when built
        src = Path(shapelab.__file__).resolve().parents[1]
        code = ("import sys, shapelab.cli; from shapelab import geometry as geo; "
                "loaded = lambda: any(m.startswith('numpy.polynomial') for m in sys.modules); "
                "before = loaded(); geo.Domain(geo.disk(1.0), m=32).interior(); "
                "print(before, loaded())")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False True"

    def test_a_lower_degree_is_a_prefix_bit_for_bit(self):
        xy = np.random.default_rng(12).uniform(-1.5, 1.5, size=(2, 50))
        assert monomial_powers(4)[:6] == monomial_powers(2)
        np.testing.assert_array_equal(monomials(xy, 4)[:6], monomials(xy, 2))
        for row, (a, b) in zip(monomials(xy, 4), monomial_powers(4)):
            np.testing.assert_allclose(row, xy[0] ** a * xy[1] ** b, rtol=4 * EPS)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_polynomials_match_the_tensor_basis_within_rounding(self, degree):
        from numpy.polynomial.polynomial import polyvander2d
        rng = np.random.default_rng(30 + degree)
        points = rng.uniform(-1.5, 1.5, size=(200, 2))
        px, py = np.indices((degree + 1, degree + 1))
        for t in (0.0, 0.3):
            coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1, degree + 1, 3))
            coeffs[px + py > degree] = 0.0
            tensor = polyvander2d(points[:, 0], points[:, 1], (degree, degree))
            reference = tensor @ (coeffs @ t ** np.arange(3)).reshape(-1)
            got = IntegrandSpec.from_coefficients(coeffs).value(points, t)
            # measured at most 1.9 EPS of the largest value
            assert np.abs(got - reference).max() <= 8 * EPS * np.abs(reference).max()


class TestVectorCoefficientIntegrand:
    EVALUATORS = ("value", "dt", "dtt", "divergence", "divergence_dt", "divergence_gradient")

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sympy_expressions(self, seed):
        rng = np.random.default_rng(seed)
        # components of different shapes, padded to a common one
        coeffs = rng.uniform(-1, 1, size=(4, 3, 3)), rng.uniform(-1, 1, size=(2, 4, 3))
        exprs = [" + ".join(f"({float(c)!r})*x1**{px}*x2**{py}*t**{pt}"
                            for (px, py, pt), c in np.ndenumerate(ck)) for ck in coeffs]
        poly = VectorIntegrandSpec.from_coefficients(*coeffs)
        symbolic = VectorIntegrandSpec.from_expressions(*exprs)
        pts = rng.uniform(-1.5, 1.5, size=(20, 2))
        for t in (0.3, -0.07):
            for name in self.EVALUATORS:
                got = getattr(poly, name)(pts, t)
                want = getattr(symbolic, name)(pts, t)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * np.max(np.abs(want)))


class TestVectorIntegrandSpec:
    def test_divergence_consistency(self):
        spec = VectorIntegrandSpec.from_expressions("x1**2*x2 + t", "x1 - x2**3")
        h = 1e-6
        div_fd = sum(
            (spec.value(PTS + np.eye(2)[k] * h, 0.0)[:, k]
             - spec.value(PTS - np.eye(2)[k] * h, 0.0)[:, k]) / (2 * h)
            for k in range(2))
        np.testing.assert_allclose(spec.divergence(PTS, 0.0), div_fd, atol=1e-8)

    def test_divergence_gradient(self):
        spec = VectorIntegrandSpec.from_expressions("x1**3", "x2**2*x1")
        np.testing.assert_allclose(
            spec.divergence_gradient(PTS, 0.0),
            np.stack([6 * PTS[:, 0] + 2 * PTS[:, 1], 2 * PTS[:, 0]], axis=-1))

    def test_normal_scaled_field_on_boundary(self):
        grid = geo.build_grid(geo.circle(1.0), 64)
        collar = geo.collar_extend(grid, np.ones(grid.size))
        c = IntegrandSpec.from_expression("x1 + 2")
        a = normal_scaled_integrand(c, collar)
        vals = a.value(grid.nodes, 0.0)
        np.testing.assert_allclose(vals, (grid.nodes[:, 0] + 2)[:, None] * grid.normal,
                                   atol=1e-12)
        # div(nu c) = kappa c + dc/dnu on the boundary
        expected = grid.curvature * (grid.nodes[:, 0] + 2) + grid.normal[:, 0]
        np.testing.assert_allclose(a.divergence(grid.nodes, 0.0), expected, atol=1e-10)
