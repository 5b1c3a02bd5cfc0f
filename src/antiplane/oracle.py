"""Closed-form 1D reference solutions and the benchmark problem they solve.

On the unit interval with the left end clamped and friction acting at the
right end, constant data (mu, f0, g) admit a piecewise-quadratic solution
with three regimes for the end point: negative slip, stick, positive slip.
The friction condition of this benchmark constrains the normalized flux
u'(1) by g, i.e. |u'(1)| <= g with u'(1) = -g*sign(u(1)) under slip, so
the matching discrete friction bound is mu*g.
"""

from __future__ import annotations

import enum

import numpy as np

from . import fem
from .qvi import ProblemData


class Regime(enum.Enum):
    NEGATIVE_SLIP = "negative-slip"
    STICK = "stick"
    POSITIVE_SLIP = "positive-slip"


def regime_of(mu: float, f0: float, g: float) -> Regime:
    """Classify the end-point behaviour; threshold ties count as stick."""
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if g < 0.0:
        raise ValueError("g must be nonnegative")
    if f0 < -2.0 * mu * g:
        return Regime.NEGATIVE_SLIP
    if f0 > 2.0 * mu * g:
        return Regime.POSITIVE_SLIP
    return Regime.STICK


def _slope_at_zero(mu: float, f0: float, g: float) -> float:
    """u'(0) of the closed form, which the regime of the data fixes."""
    regime = regime_of(mu, f0, g)
    if regime is Regime.NEGATIVE_SLIP:
        return f0 / mu + g
    if regime is Regime.POSITIVE_SLIP:
        return f0 / mu - g
    return f0 / (2.0 * mu)


def analytic_1d(mu: float, f0: float, g: float, x):
    """Closed-form solution values at ``x`` for constant data on (0, 1)."""
    x = np.asarray(x, dtype=float)
    return -(f0 / (2.0 * mu)) * x**2 + _slope_at_zero(mu, f0, g) * x


def benchmark_mesh(n_elements: int) -> fem.Mesh:
    """Unit interval, left end clamped, friction at the right end."""
    spec = fem.MeshSpec(
        dimension=1,
        extents=(1.0,),
        resolution=(n_elements,),
        partition={"left": fem.GAMMA1, "right": fem.GAMMA3},
    )
    return fem.build_mesh(spec)


def benchmark_problem(mu: float, f0: float, g: float, n_elements: int) -> ProblemData:
    """Discrete problem whose solution the closed form predicts.

    The benchmark bounds the normalized flux u'(1), so the discrete
    friction bound on the stress is the constant mu*g.
    """
    mesh = benchmark_mesh(n_elements)
    return ProblemData(
        mesh=mesh,
        mu=float(mu),
        f0=float(f0),
        f2=0.0,
        g=fem.FrictionBound.constant(mu * g),
    )
