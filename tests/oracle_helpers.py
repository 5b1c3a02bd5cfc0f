"""Reference values that only the tests compare against: the slope of
the closed-form 1D solution and a frictionless direct solve."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from antiplane import fem
from antiplane.oracle import _slope_at_zero


def analytic_1d_slope(mu: float, f0: float, g: float, x):
    """Exact derivative of the closed-form solution ``oracle.analytic_1d``."""
    x = np.asarray(x, dtype=float)
    return -(f0 / mu) * x + _slope_at_zero(mu, f0, g)


def linear_solve(mesh: fem.Mesh, mu, f0, f2=None) -> np.ndarray:
    """Direct frictionless solve: K u = F with gamma1 rows eliminated."""
    K = fem.assemble_stiffness(mesh, mu)
    F = fem.assemble_load(mesh, f0, f2)
    free = mesh.free_nodes
    u = np.zeros(mesh.n_nodes)
    u[free] = spla.spsolve(K[free][:, free].tocsc(), F[free])
    return u
