"""Norms and projections of the discrete space V_h that the tests compare
against; the package itself needs only ``fem.v_norm``."""

from __future__ import annotations

import numpy as np

from antiplane import fem


def grad_seminorm(mesh: fem.Mesh, v: np.ndarray) -> float:
    S = fem.stiffness_matrix(mesh, 1.0)
    return float(np.sqrt(max(v @ (S @ v), 0.0)))


def gamma3_norm(mesh: fem.Mesh, v: np.ndarray) -> float:
    """Lumped L2 norm on the gamma3 boundary, matching eval_j quadrature."""
    idx = mesh.node_sets[fem.GAMMA3]
    if len(idx) == 0:
        return 0.0
    w = mesh.gamma3_weights[idx]
    return float(np.sqrt(np.sum(w * v[idx] ** 2)))


def dual_norm(mesh: fem.Mesh, F: np.ndarray) -> float:
    """Norm of a load functional over the constrained space.

    Computed as sqrt(F' A^-1 F) on the free nodes, where A is the H1 Gram
    matrix, factored here (the mesh's cache keeps no Gram factor); this is
    the Riesz norm of v -> F.v over fields vanishing on gamma1.
    """
    free = mesh.free_nodes
    Ff = F[free]
    z = fem.spd_factor(fem.submatrix(fem.gram_matrix(mesh), free, free))[0](Ff)
    return float(np.sqrt(max(Ff @ z, 0.0)))


def in_space(mesh: fem.Mesh, v: np.ndarray, tol: float = 0.0) -> bool:
    """True when the field vanishes on all gamma1 nodes (lies in V_h)."""
    g1 = mesh.node_sets[fem.GAMMA1]
    if len(g1) == 0:
        return True
    return bool(np.max(np.abs(v[g1])) <= tol)


def zero_on_gamma1(mesh: fem.Mesh, v: np.ndarray) -> np.ndarray:
    """Copy of ``v`` with the gamma1 coefficients forced to zero."""
    out = np.array(v, dtype=float)
    out[mesh.node_sets[fem.GAMMA1]] = 0.0
    return out
