"""Space-time test integrands with declared analytic derivatives.

Scalar integrands c(x, t) carry evaluators for c, c_t, c_tt, grad c, and
hess c; vector fields a(x, t) additionally declare divergence data.
Polynomials (every integrand of the built-in registry) are numpy coefficient
arrays differentiated by index shifts, on the ``monomials`` that
``perturbation``'s fields share; user-written expressions go through sympy,
imported on first use, which builds all derivatives symbolically (the usual
manufactured-solution workflow).  Every evaluator is vectorized over point
arrays of shape (N, 2).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _sympy():
    """sympy and its symbols x1, x2, t, imported only when an expression is compiled.

    sympy comes with the optional extra ``shapelab[expressions]``.
    """
    try:
        import sympy as sp
    except ImportError as exc:
        raise ImportError("expression integrands need sympy, which the optional "
                          "extra shapelab[expressions] installs") from exc
    return sp, sp.symbols("x1 x2 t")


def _vectorized(expr, shape_tail=()):
    """Lambdify ``expr`` of (x1, x2, t) into f(points, t) with broadcasting.

    ``expr`` is a scalar for shape_tail=(), otherwise a sympy Matrix whose
    entries fill the trailing shape; scalar components are lambdified
    separately so constant entries broadcast cleanly.
    """
    sp, symbols = _sympy()
    flat = [sp.lambdify(symbols, e, modules="numpy") for e in (expr if shape_tail else [expr])]

    def call(points: np.ndarray, t: float = 0.0) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        cols = [np.broadcast_to(np.asarray(fn(points[:, 0], points[:, 1], t),
                                           dtype=float), (n,))
                for fn in flat]
        if not shape_tail:
            return np.ascontiguousarray(cols[0])
        out = np.stack(cols, axis=-1).reshape((n,) + shape_tail)
        return np.ascontiguousarray(out)

    return call


def _shifted(c: np.ndarray, axis: int) -> np.ndarray:
    """Coefficients of the derivative along ``axis`` (0: x1, 1: x2, 2: t), same shape."""
    power = np.arange(c.shape[axis]).reshape([-1 if a == axis else 1 for a in range(3)])
    return np.roll(power * c, -1, axis=axis)


@functools.cache
def monomial_powers(degree: int) -> tuple:
    """(a, b) of the monomials x1**a x2**b with a + b <= ``degree``, by total
    degree d, then b, so row d (d + 1) / 2 + b; a lower degree's are a prefix."""
    return tuple((d - b, b) for d in range(degree + 1) for b in range(d + 1))


def monomials(xy: np.ndarray, degree: int, out=None) -> np.ndarray:
    """The (K, N) ``monomial_powers(degree)`` at component-major points (2, N),
    into ``out`` when given.  Each is the one d rows back times x1, or for
    a = 0 the one d + 1 rows back times x2, so a lower degree's rows are a
    prefix, bit for bit."""
    powers = monomial_powers(degree)
    if out is None:
        out = np.empty((len(powers), xy.shape[1]))
    out[0] = 1.0
    for k, (a, b) in enumerate(powers[1:], start=1):
        np.multiply(out[k - a - b - (a == 0)], xy[int(a == 0)], out=out[k])
    return out


def _polynomial(coeffs: list, shape_tail=()):
    """f(points, t) of sum c[px, py, pt] x1**px x2**py t**pt, one c per trailing
    entry, on the ``monomials`` to the highest degree of a nonzero c, summed
    px-major as numpy's polyvander2d tensor basis was (fewer rows round anew)."""
    stacked = np.stack(coeffs)
    k, px, py, pt = stacked.shape
    degree = int(np.sum(np.argwhere(stacked.any(axis=(0, 3))), axis=1).max(initial=0))
    powers = np.array(monomial_powers(degree))
    rows = np.lexsort(powers.T[::-1])  # px-major
    a, b = powers[rows].T
    inside = (a < px) & (b < py)
    table = np.zeros((k, len(rows), pt))
    table[:, inside] = stacked[:, a[inside], b[inside]]

    def call(points: np.ndarray, t: float = 0.0) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        space = table @ (float(t) ** np.arange(pt))
        return (monomials(points.T, degree)[rows].T @ space.T).reshape(
            (len(points),) + shape_tail)

    return call


@dataclass(frozen=True)
class IntegrandSpec:
    """Scalar integrand with its declared space/time derivatives."""

    value: Callable      # (pts, t) -> (N,)
    dt: Callable | None = None
    dtt: Callable | None = None
    gradient: Callable | None = None   # (pts, t) -> (N, 2)
    hessian: Callable | None = None    # (pts, t) -> (N, 2, 2)
    dt_gradient: Callable | None = None  # (pts, t) -> (N, 2), grad of c_t

    @classmethod
    def from_expression(cls, expr) -> "IntegrandSpec":
        sp, (x1, x2, t) = _sympy()
        expr = sp.sympify(expr)
        grad = [sp.diff(expr, x1), sp.diff(expr, x2)]
        hess = [[sp.diff(g, v) for v in (x1, x2)] for g in grad]
        return cls(
            value=_vectorized(expr),
            dt=_vectorized(sp.diff(expr, t)),
            dtt=_vectorized(sp.diff(expr, t, 2)),
            gradient=_vectorized(sp.Matrix(grad), (2,)),
            hessian=_vectorized(sp.Matrix(hess), (2, 2)),
            dt_gradient=_vectorized(sp.Matrix([sp.diff(g, t) for g in grad]), (2,)),
        )

    @classmethod
    def from_coefficients(cls, coeffs) -> "IntegrandSpec":
        """The polynomial sum coeffs[px, py, pt] x1**px x2**py t**pt."""
        c = np.asarray(coeffs, dtype=float)
        cx, cy, ct = (_shifted(c, axis) for axis in range(3))
        cxy = _shifted(cx, 1)
        return cls(
            value=_polynomial([c]),
            dt=_polynomial([ct]),
            dtt=_polynomial([_shifted(ct, 2)]),
            gradient=_polynomial([cx, cy], (2,)),
            hessian=_polynomial([_shifted(cx, 0), cxy, cxy, _shifted(cy, 1)], (2, 2)),
            dt_gradient=_polynomial([_shifted(cx, 2), _shifted(cy, 2)], (2,)),
        )

    @classmethod
    def constant(cls, value: float = 1.0) -> "IntegrandSpec":
        return cls.from_coefficients(np.full((1, 1, 1), value))


@dataclass(frozen=True)
class VectorIntegrandSpec:
    """Vector field a(x, t) with time derivatives and divergence data."""

    value: Callable                 # (pts, t) -> (N, 2)
    dt: Callable | None = None
    dtt: Callable | None = None
    divergence: Callable | None = None        # (N,)
    divergence_dt: Callable | None = None     # (N,)
    divergence_gradient: Callable | None = None  # (N, 2)

    @classmethod
    def from_expressions(cls, expr1, expr2) -> "VectorIntegrandSpec":
        sp, (x1, x2, t) = _sympy()
        e1, e2 = sp.sympify(expr1), sp.sympify(expr2)
        vec = sp.Matrix([e1, e2])
        div = sp.diff(e1, x1) + sp.diff(e2, x2)
        return cls(
            value=_vectorized(vec, (2,)),
            dt=_vectorized(sp.diff(vec, t), (2,)),
            dtt=_vectorized(sp.diff(vec, t, 2), (2,)),
            divergence=_vectorized(div),
            divergence_dt=_vectorized(sp.diff(div, t)),
            divergence_gradient=_vectorized(sp.Matrix([sp.diff(div, x1), sp.diff(div, x2)]), (2,)),
        )

    @classmethod
    def from_coefficients(cls, c1, c2) -> "VectorIntegrandSpec":
        """The field (a1, a2) of two coefficient arrays, as in IntegrandSpec."""
        c1, c2 = np.asarray(c1, dtype=float), np.asarray(c2, dtype=float)
        shape = np.maximum(c1.shape, c2.shape)  # pad both to one shape
        c = [np.pad(ck, [(0, n - k) for n, k in zip(shape, ck.shape)]) for ck in (c1, c2)]
        ct = [_shifted(ck, 2) for ck in c]
        div = _shifted(c[0], 0) + _shifted(c[1], 1)
        return cls(
            value=_polynomial(c, (2,)),
            dt=_polynomial(ct, (2,)),
            dtt=_polynomial([_shifted(ck, 2) for ck in ct], (2,)),
            divergence=_polynomial([div]),
            divergence_dt=_polynomial([_shifted(div, 2)]),
            divergence_gradient=_polynomial([_shifted(div, 0), _shifted(div, 1)], (2,)),
        )


def normal_scaled_integrand(c: IntegrandSpec, collar) -> VectorIntegrandSpec:
    """The field a = nu~ c built from a collar extension of the unit normal.

    Valid only inside the collar, which is all the boundary-flux formulas and
    their pushed-node oracles need.  Second-order divergence data is not
    provided (the extension's curvature gradient is not tracked).
    """

    def value(pts, t=0.0):
        return collar.extended_normal(pts) * c.value(pts, t)[:, None]

    def dt(pts, t=0.0):
        return collar.extended_normal(pts) * c.dt(pts, t)[:, None]

    def divergence(pts, t=0.0):
        nu = collar.extended_normal(pts)
        grad = c.gradient(pts, t)
        return collar.normal_divergence(pts) * c.value(pts, t) \
            + np.einsum("ni,ni->n", nu, grad)

    return VectorIntegrandSpec(value=value, dt=dt, dtt=None,
                               divergence=divergence, divergence_dt=None,
                               divergence_gradient=None)


def random_polynomial_integrand(rng: random.Random, degree: int = 2,
                                time_degree: int = 1, scale: float = 0.5) -> IntegrandSpec:
    """Random space-time polynomial used by the seeded property cases."""
    coeffs = np.zeros((degree + 1, degree + 1, time_degree + 1))
    for px in range(degree + 1):
        for py in range(degree + 1 - px):
            for pt in range(time_degree + 1):
                coeffs[px, py, pt] = scale * rng.uniform(-1, 1)
    return IntegrandSpec.from_coefficients(coeffs)
