"""Discrete functional-analytic constants of the working space.

Two constants control the fixed-point analysis of the friction problem:
the Friedrichs-Poincare constant c0 (full H1 norm against the gradient
seminorm) and the gamma3 trace constant c3 (lumped boundary norm against
the full H1 norm).  Both are the largest eigenvalues of small generalized
eigenvalue problems for the discrete space, so the contraction prediction
k = L_g * c0^2 * c3^2 / mu_star is sharp for the implemented solver.  c0
comes from a power iteration on the mesh's cached factor of the free unit
stiffness block (``fem.free_block``), shared by the Tresca solver of a
scalar modulus; c3 is exact, from one dense eigensolve on the gamma3 block
of the inverse H1 Gram block, whose band factor is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevd

from . import fem


# the power iteration of c0: relative tolerance, iteration cap, seed of the start vector
_POWER_TOL = 1e-10
_POWER_MAXITER = 10000
_POWER_SEED = 0


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine misses its tolerance within the cap."""


def _power_iteration(solve, B, A, v0, tol, maxiter):
    """Largest eigenvalue of B v = lambda A v by power iteration on A^-1 B.

    ``solve`` applies A^-1.  Each iteration forms B v once, for both the
    Rayleigh quotient (v'Bv)/(v'Av) of the normalized iterate and the
    next iterate A^-1 B v.  Stops when the relative change of the
    quotient falls below ``tol``; returns lambda.
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
            return lam_new
        lam = lam_new
    raise ConvergenceError(
        f"power iteration missed tolerance {tol} within {maxiter} iterations "
        f"(last relative change {abs(lam_new - lam) / max(abs(lam_new), 1e-300):.3e})"
    )


def poincare_constant(mesh: fem.Mesh) -> float:
    """Best constant c0 with ||v||_V <= c0 ||grad v|| on the discrete space.

    c0^2 = 1 + lambda with lambda the largest eigenvalue of M v = lambda S v
    over fields vanishing on gamma1 (the same eigenvectors as
    (M + S) v = c0^2 S v), computed by power iteration with inner solves
    against S.  Iterating S^-1 M instead of S^-1 (M + S) shrinks the ratio
    of the two leading eigenvalues from about 0.77 to about 0.2 on the
    unit square, so the iteration needs about ten solves.  It runs at
    fixed settings (``_POWER_TOL``, ``_POWER_MAXITER`` and a start vector
    drawn from ``default_rng(_POWER_SEED)``), so c0 depends on the mesh
    alone.  Raises fem.MeshError when every node is clamped.
    """
    S, solve, _ = fem.free_block(mesh)
    free = mesh.free_nodes
    M = fem.submatrix(fem.mass_matrix(mesh), free, free)
    v0 = np.random.default_rng(_POWER_SEED).standard_normal(len(free))
    return float(np.sqrt(1.0 + _power_iteration(solve, M, S, v0, _POWER_TOL, _POWER_MAXITER)))


def trace_constant(mesh: fem.Mesh) -> float:
    """Best constant c3 with ||v||_{gamma3} <= c3 ||v||_V on the discrete space.

    The boundary norm is the lumped gamma3 quadrature used by the friction
    functional, B = diag(w) on the gamma3 nodes T.  c3^2 is the largest
    eigenvalue of B v = lambda (M + S) v, which B confines to T: that of
    W^1/2 Z W^1/2 with Z = ((M + S)_ff^-1)_TT from the Gram block's band
    factor (``fem.free_factor``, not kept), found by one dense symmetric
    eigensolve.  Returns 0 when gamma3 carries no node.
    """
    idx = mesh.node_sets[fem.GAMMA3]
    if len(idx) == 0:
        return 0.0
    Z = fem.free_factor(mesh, fem.gram_matrix(mesh))[2]
    root = np.sqrt(mesh.gamma3_weights[idx])
    eigenvalues, _, info = dsyevd(root[:, None] * Z * root, compute_v=0)
    if info:
        raise ConvergenceError(f"the dense eigensolve of c3 failed (LAPACK info {info})")
    return float(np.sqrt(max(eigenvalues[-1], 0.0)))


def check_margin_data(lipschitz: float, mu_star: float) -> None:
    """ValueError unless mu_star > 0 and lipschitz >= 0 (NaN refused)."""
    if not mu_star > 0.0:  # also refuses NaN
        raise ValueError(f"mu_star must be positive, got {mu_star}")
    if not lipschitz >= 0.0:
        raise ValueError(f"lipschitz must be nonnegative, got {lipschitz}")


def smallness_margin(lipschitz: float, c0: float, c3: float, mu_star: float):
    """Contraction factor k = L_g c0^2 c3^2 / mu_star and whether k < 1."""
    check_margin_data(lipschitz, mu_star)
    k = lipschitz * c0**2 * c3**2 / mu_star
    return float(k), bool(k < 1.0)


@dataclass(frozen=True)
class ConstantsReport:
    c0: float
    c3: float
    k: float
    ok: bool


def space_constants(mesh: fem.Mesh) -> tuple[float, float]:
    """(c0, c3) for one mesh, kept in the mesh's cache because they depend
    on the mesh only; fem.MeshError when every node is clamped."""

    def build():
        c3 = trace_constant(mesh)  # before c0, so the Gram band is gone when S_ff's is made
        return poincare_constant(mesh), c3

    return fem.cached(mesh, "constants", build)


def constants_report(mesh: fem.Mesh, lipschitz: float, mu_star: float) -> ConstantsReport:
    """Both constants (cached per mesh) and the contraction margin for one
    mesh; a bad ``lipschitz`` or ``mu_star`` is refused before the constants
    are computed."""
    check_margin_data(lipschitz, mu_star)
    c0, c3 = space_constants(mesh)
    k, ok = smallness_margin(lipschitz, c0, c3, mu_star)
    return ConstantsReport(c0=c0, c3=c3, k=k, ok=ok)
