"""Finite-difference reference engine with Richardson extrapolation.

Central 4th-order stencils for first derivatives and 5-point stencils for
second derivatives, evaluated along a geometric step ladder.  Function
values are memoized so shared abscissae (e.g. t=0) are computed once.
Values may be scalars or arrays; arrays are differentiated componentwise
and judged in the max-norm.  ``ladder_steps`` is the one rule for a given
ladder, shared by the engine and the config loader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np


@dataclass
class FDResult:
    """Ladder of derivative estimates plus the Richardson value on the finest pair.

    ``estimates`` and ``value`` are floats for scalar g and arrays of g's
    shape otherwise.
    """

    order: int
    ladder: tuple
    estimates: tuple
    value: float | np.ndarray
    observed_order: float | None
    monotone: bool
    warnings: tuple = field(default_factory=tuple)


DEFAULT_FIRST_LADDER = (1e-2, 5e-3, 2.5e-3)
DEFAULT_SECOND_LADDER = (5e-2, 2.5e-2, 1.25e-2)
STENCIL_ORDER = 4  # truncation order of both stencils below


def central_first(g, h: float):
    """4th-order central first derivative at 0."""
    return (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)


def five_point_second(g, h: float):
    """4th-order (5-point) second derivative at 0."""
    return (-g(2 * h) + 16 * g(h) - 30 * g(0.0) + 16 * g(-h) - g(-2 * h)) / (12 * h * h)


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def ladder_steps(ladder) -> tuple | None:
    """None (the default ladder) for a ladder that is None or empty, else its
    steps: a strictly decreasing sequence of at least 2 finite positive steps,
    or a ValueError that names ``ladder``."""
    try:
        steps = () if ladder is None else tuple(float(h) for h in ladder)
    except (TypeError, ValueError):
        steps = (np.nan,)
    if steps and not (len(steps) >= 2 and np.all(np.isfinite(steps)) and steps[-1] > 0.0
                      and all(h1 > h2 for h1, h2 in zip(steps, steps[1:]))):
        raise ValueError("ladder must be a decreasing sequence of at least 2 "
                         f"finite positive steps, not {ladder!r}")
    return steps or None


def derivative_ladder(g, order: int = 1, ladder=None) -> FDResult:
    """Estimate the first or second derivative of g at 0 along a step ladder
    (the default ladder of ``order`` when ``ladder`` is None or empty).

    Richardson-extrapolates the finest pair using the stencil's truncation
    order, reports the observed convergence order from successive estimate
    differences, and flags non-monotone ladders (cancellation).  Both
    diagnostics ignore differences below 1e-11 * max(1, |value|).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    ladder = ladder_steps(ladder) or (DEFAULT_FIRST_LADDER if order == 1
                                      else DEFAULT_SECOND_LADDER)
    memo = cache(lambda t: np.asarray(g(t), dtype=float))  # each abscissa once
    stencil = central_first if order == 1 else five_point_second
    estimates = tuple(stencil(memo, h) for h in ladder)

    r = ladder[-2] / ladder[-1]
    richardson = estimates[-1] + (estimates[-1] - estimates[-2]) / (r ** STENCIL_ORDER - 1.0)

    observed = None
    warnings = []
    # differences at or below this absolute floor are rounding, not signal
    floor = 1e-11 * max(1.0, _max_abs(richardson))
    if len(estimates) >= 3:
        d1 = _max_abs(estimates[-3] - estimates[-2])
        d2 = _max_abs(estimates[-2] - estimates[-1])
        if d1 <= floor and d2 <= floor:
            observed = np.inf  # stencil exact for this integrand; only rounding left
        elif d1 > 0 and d2 > 0:
            observed = float(np.log(d1 / d2) / np.log(ladder[-3] / ladder[-2]))
    gaps = [_max_abs(e - richardson) for e in estimates]
    monotone = all(max(a, floor) >= b * (1 - 1e-12) for a, b in zip(gaps, gaps[1:]))
    if not monotone:
        warnings.append("non-monotone ladder (cancellation suspected)")
    if richardson.ndim == 0:
        estimates = tuple(float(e) for e in estimates)
        richardson = float(richardson)
    return FDResult(order, ladder, estimates, richardson, observed,
                    monotone, tuple(warnings))
