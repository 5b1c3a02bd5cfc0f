"""Discrete functional-analytic constants of the working space.

Two constants control the fixed-point analysis of the friction problem:
the Friedrichs-Poincare constant c0 (full H1 norm against the gradient
seminorm) and the gamma3 trace constant c3 (lumped boundary norm against
the full H1 norm).  Both are computed exactly for the discrete space by
power iteration on small generalized eigenvalue problems, so the
contraction prediction k = L_g * c0^2 * c3^2 / mu_star is sharp for the
implemented solver.  The inner solves use the banded Cholesky kernel
``fem.spd_factor``; the trace constant shares the cached Gram factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine misses its tolerance within the cap."""


def _power_iteration(solve, B, A, v0, tol, maxiter):
    """Largest eigenvalue of B v = lambda A v by power iteration on A^-1 B.

    ``solve`` applies A^-1.  Each iteration forms B v once, for both the
    Rayleigh quotient (v'Bv)/(v'Av) of the normalized iterate and the
    next iterate A^-1 B v.  Stops when the relative change of the
    quotient falls below ``tol``; returns (lambda, v).
    """
    v = v0 / np.linalg.norm(v0)
    Bv = B @ v
    lam = float((v @ Bv) / (v @ (A @ v)))
    for _ in range(maxiter):
        v = solve(Bv)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector")
        v /= nrm
        Bv = B @ v
        lam_new = float((v @ Bv) / (v @ (A @ v)))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new, v
        lam = lam_new
    raise ConvergenceError(
        f"power iteration missed tolerance {tol} within {maxiter} iterations "
        f"(last relative change {abs(lam_new - lam) / max(abs(lam_new), 1e-300):.3e})"
    )


def poincare_constant(
    mesh: fem.Mesh,
    *,
    tol: float = 1e-10,
    maxiter: int = 10000,
    seed: int = 0,
    return_field: bool = False,
):
    """Best constant c0 with ||v||_V <= c0 ||grad v|| on the discrete space.

    c0^2 = 1 + lambda with lambda the largest eigenvalue of M v = lambda S v
    over fields vanishing on gamma1 (the same eigenvectors as
    (M + S) v = c0^2 S v), computed by power iteration with inner solves
    against S.  Iterating S^-1 M instead of S^-1 (M + S) shrinks the ratio
    of the two leading eigenvalues from about 0.77 to about 0.2 on the
    unit square, so the iteration needs about ten solves.  Raises
    fem.MeshError when every node is clamped.
    """
    free = mesh.free_nodes
    if len(free) == 0:
        raise fem.MeshError("no free node: every node lies on gamma1")
    S = fem.submatrix(fem.unit_stiffness(mesh), free, free)
    M = fem.submatrix(fem.mass_matrix(mesh), free, free)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(len(free))
    lam, vec = _power_iteration(fem.spd_factor(S), M, S, v0, tol, maxiter)
    c0 = float(np.sqrt(1.0 + lam))
    if return_field:
        field = np.zeros(mesh.n_nodes)
        field[free] = vec
        return c0, field
    return c0


def trace_constant(
    mesh: fem.Mesh,
    *,
    tol: float = 1e-10,
    maxiter: int = 10000,
    seed: int = 0,
    return_field: bool = False,
):
    """Best constant c3 with ||v||_{gamma3} <= c3 ||v||_V on the discrete space.

    The boundary norm is the lumped gamma3 quadrature used by the friction
    functional.  Square root of the largest eigenvalue of B v = lambda
    (M + S) v with B the diagonal lumped boundary mass; returns 0 when
    gamma3 carries no free node.
    """
    free = mesh.free_nodes
    idx = mesh.node_sets[fem.GAMMA3]
    if len(idx) == 0:
        if return_field:
            return 0.0, np.zeros(mesh.n_nodes)
        return 0.0
    w = np.zeros(mesh.n_nodes)
    w[idx] = mesh.gamma3_weights[idx]
    B = sp.diags(w[free]).tocsr()
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(len(free))
    if float(v0 @ (B @ v0)) == 0.0:
        v0 += 1.0  # make sure the start sees the boundary
    lam, vec = _power_iteration(
        fem.gram_free_solve(mesh), B, fem.gram_free(mesh), v0, tol, maxiter
    )
    c3 = float(np.sqrt(max(lam, 0.0)))
    if return_field:
        field = np.zeros(mesh.n_nodes)
        field[free] = vec
        return c3, field
    return c3


def smallness_margin(lipschitz: float, c0: float, c3: float, mu_star: float):
    """Contraction factor k = L_g c0^2 c3^2 / mu_star and whether k < 1."""
    if mu_star <= 0.0:
        raise ValueError("mu_star must be positive")
    if lipschitz < 0.0:
        raise ValueError("Lipschitz rate must be nonnegative")
    k = lipschitz * c0**2 * c3**2 / mu_star
    return float(k), bool(k < 1.0)


@dataclass(frozen=True)
class ConstantsReport:
    c0: float
    c3: float
    k: float
    ok: bool


def space_constants(
    mesh: fem.Mesh, *, tol: float = 1e-10, maxiter: int = 10000, seed: int = 0
) -> tuple[float, float]:
    """(c0, c3) for one mesh, kept in the mesh's cache because they depend
    on the mesh only.

    Raises fem.MeshError when every node is clamped.
    """
    return fem.cached(
        mesh,
        ("constants", tol, maxiter, seed),
        lambda: (
            poincare_constant(mesh, tol=tol, maxiter=maxiter, seed=seed),
            trace_constant(mesh, tol=tol, maxiter=maxiter, seed=seed),
        ),
    )


def constants_report(
    mesh: fem.Mesh,
    lipschitz: float,
    mu_star: float,
    *,
    tol: float = 1e-10,
    maxiter: int = 10000,
    seed: int = 0,
) -> ConstantsReport:
    """Both constants (cached per mesh) and the contraction margin for one mesh."""
    c0, c3 = space_constants(mesh, tol=tol, maxiter=maxiter, seed=seed)
    k, ok = smallness_margin(lipschitz, c0, c3, mu_star)
    return ConstantsReport(c0=c0, c3=c3, k=k, ok=ok)
