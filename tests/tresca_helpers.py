"""A frozen-bound (Tresca) solve for the tests: ``qvi.TrescaSolver`` on
the band factor of a stiffness matrix's free block, run by its
active-set iteration on the reduced load, as one outer step of
``qvi.fixed_point`` runs it."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from antiplane import fem, qvi


def tresca_solver(K, free, gamma3) -> qvi.TrescaSolver:
    """``qvi.TrescaSolver`` of K on the ``fem.spd_factor`` of its free
    block, ordered with the gamma3 rows last, with sigma = SIGN_WEIGHT / diag(K)_T."""
    free = np.sort(np.asarray(free, dtype=np.int64))
    pos = np.flatnonzero(np.isin(free, gamma3))
    block = fem.submatrix(K, free, free)
    factor = fem.spd_factor(block, fem.band_layout(block, pos))
    index = SimpleNamespace(n_nodes=K.shape[0], free=free, pos=pos, friction=free[pos])
    return qvi.TrescaSolver(index, factor, qvi.SIGN_WEIGHT / K.diagonal()[free[pos]])


def tresca_solve(solver, F, c, t0=None):
    """(u, iterations): the minimizer of 0.5 v'Kv - F'v + sum_i c_i |v_i|.

    ``t0`` warm-starts from a guess of the gamma3 values and the solver's
    last multiplier; without it the start is t = 0 and the default
    multiplier of ``TrescaSolver._iterate``.
    """
    t = np.zeros(len(solver.friction)) if t0 is None else np.array(t0, dtype=float)
    lam = None if t0 is None else solver._lam
    c = np.asarray(c, dtype=float)
    return solver._iterate(solver.reduce(F), c, t, lam)
