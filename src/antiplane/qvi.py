"""Fixed-point solver for the frictional quasivariational inequality.

The discrete problem reads: find u in V_h with

    a(u, v - u) + j(u, v) - j(u, u) >= F.(v - u)   for all v in V_h,

where a is the mu-weighted gradient form, F the load functional and
j(eta, v) the lumped friction functional whose bound depends on the slip
magnitude |eta| on gamma3.  A solve freezes the bound (Tresca problem),
minimizes the resulting convex energy exactly, and iterates the bound
update until the fixed point is reached.  The update is a contraction with
factor k = L_g c0^2 c3^2 / mu_star; k >= 1 must be overridden explicitly.

The Tresca energy is smooth except for separable absolute values on the
gamma3 nodes.  A banded Cholesky factorization (``fem.spd_factor``) of
the smooth block reduces each fixed-point run's load to the gamma3 block
once; a primal-dual active-set iteration (semismooth Newton;
Hintermueller-Ito-Kunisch 2002, Stadler 2004) then guesses which gamma3
nodes stick and which slip, solves one linear system on the slip nodes
(its LU kept while the slip set is unchanged) and stops when the
discrete friction law holds; each outer step lifts the result to all nodes.
``DiscreteProblem`` assembles K and builds that solver once per problem,
for any number of loads and friction bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import constants, fem


class SolverError(RuntimeError):
    """Raised when a solve misses its tolerance or the data is unusable."""


@dataclass(frozen=True)
class ProblemData:
    """Data of one friction problem instance.

    ``mu`` and ``f0`` follow the coefficient conventions of the assembly
    routines (scalar, callable or per-element array); ``f2`` likewise on
    gamma2 facets.  ``mu_star`` is the certified lower bound of mu; when
    omitted it is resolved to the smallest sampled value.
    """

    mesh: fem.Mesh
    mu: object
    f0: object
    f2: object
    g: fem.FrictionBound
    mu_star: float | None = None

    def resolved_mu_star(self) -> float:
        if self.mu_star is not None:
            return float(self.mu_star)
        return float(fem.element_values(self.mesh, self.mu).min())

    def with_data(self, **changes) -> "ProblemData":
        return replace(self, **changes)


@dataclass(frozen=True)
class TykhonovIndex:
    """Perturbation index: regularization weight plus perturbed data."""

    eps: float
    f0: object
    f2: object
    g: fem.FrictionBound

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps of the fixed point.

    ``outer_tol`` bounds the final V-norm increment of the bound update and
    ``max_outer`` caps its iterations.  ``inner_tol`` is the relative
    tolerance of the inner friction-law (KKT) test and ``max_inner`` caps
    the active-set iterations of one frozen-bound solve.  Both caps must
    be at least 1 and both tolerances positive (ValueError otherwise).
    """

    outer_tol: float = 1e-10
    inner_tol: float = 1e-12
    max_outer: int = 200
    max_inner: int = 50000
    allow_non_contractive: bool = False

    def __post_init__(self):
        for name in ("max_outer", "max_inner"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name in ("outer_tol", "inner_tol"):
            value = getattr(self, name)
            if not value > 0.0:  # also refuses NaN
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class SolveReport:
    converged: bool
    outer_iterations: int
    increments: list[float]
    ratios: list[float]
    # active-set iterations of the inner solve, one entry per outer step
    inner_sweeps: list[int]
    c0: float
    c3: float
    k: float
    contraction_ok: bool
    # a-posteriori bound ||u - u_m||_V <= k/(1-k) ||u_m - u_{m-1}||_V of the
    # returned iterate when k < 1, else None; reported only, not a stop test
    error_bound: float | None = None


class TrescaSolver:
    """Exact minimizer of 0.5 v'Kv - F'v + sum_i c_i |v_i| over V_h.

    The nonsmooth coefficients c_i live on the gamma3 nodes.  A banded
    Cholesky factorization (reverse Cuthill-McKee order) of the smooth
    free block reduces a load to W = K_SS^-1 F_S and F_t = F_T - K_ST' W,
    once per ``fixed_point`` run.  A primal-dual active-set iteration
    (semismooth Newton) on (F_t, c, t) splits the gamma3 nodes into stick
    (t_i = 0) and slip (lambda_i = +-c_i) sets until the friction law
    holds to tolerance; the LU of the slip block A_JJ is kept while the
    slip set J is unchanged, across solves.  The lift is u = [W - X t; t].
    """

    def __init__(self, K, free_nodes, gamma3_nodes):
        self.free = np.asarray(free_nodes, dtype=np.int64)
        self.friction = np.intersect1d(
            np.asarray(gamma3_nodes, dtype=np.int64), self.free
        )
        self.smooth = np.setdiff1d(self.free, self.friction)
        self.n_nodes = K.shape[0]

        diag = K.diagonal()
        if np.any(diag[self.free] <= 0.0):
            raise SolverError("stiffness matrix has a nonpositive diagonal entry")

        S, T = self.smooth, self.friction
        self.K_st = fem.submatrix(K, S, T).toarray()
        K_tt = fem.submatrix(K, T, T).toarray()

        if len(S):
            try:
                self._solve_smooth = fem.spd_factor(fem.submatrix(K, S, S))
            except fem.FactorizationError as exc:
                raise SolverError(f"stiffness block factorization failed: {exc}") from exc
            self.X = self._solve_smooth(self.K_st) if len(T) else np.zeros((len(S), 0))
        else:
            self._solve_smooth = None
            self.X = np.zeros((0, len(T)))

        # load-independent Schur complement of the smooth block
        self.A = K_tt - (self.K_st.T @ self.X if len(S) else 0.0)
        if len(T) and np.any(np.diag(self.A) <= 0.0):
            raise SolverError("reduced friction block is not positive definite")
        # With sigma = 1/diag(A) the primal guess sways the set choice and the
        # iteration can cycle between sets (seen on warm starts); a sigma
        # three orders larger leaves the choice to the multiplier.
        self._sigma = 1e3 / np.diag(self.A)
        self._slip = (None, None)  # slip set J (as bytes), LU factors of A_JJ

    def _reduce_load(self, F):
        """(W, F_t) of the load F; a non-finite F_t raises SolverError."""
        F = np.asarray(F, dtype=float)
        if F.shape != (self.n_nodes,):
            raise ValueError(f"F must have {self.n_nodes} entries, got shape {F.shape}")
        S, T = self.smooth, self.friction
        W = self._solve_smooth(F[S]) if len(S) else np.zeros(0)
        Ft = F[T] - self.K_st.T @ W
        if not np.isfinite(Ft).all():
            raise SolverError("load is non-finite on the gamma3 block")
        return W, Ft

    def _slip_solve(self, J, rhs):
        """Solve A_JJ x = rhs with the kept LU factors of the slip block."""
        key = J.tobytes()
        if key != self._slip[0]:
            lu, piv, info = dgetrf(self.A[np.ix_(J, J)])
            if info > 0:
                raise SolverError(f"slip block is singular (zero pivot {info} in its LU)")
            self._slip = (key, (lu, piv))
        return dgetrs(*self._slip[1], rhs)[0]

    @staticmethod
    def _tolerance(Ft, inner_tol):
        """Absolute KKT tolerance inner_tol (1 + max|F_t|) of a reduced load."""
        return inner_tol * (1.0 + np.abs(Ft).max(initial=0.0))

    def _iterate(self, Ft, c, t, tol, max_inner):
        """Active-set iteration from the gamma3 guess t to the absolute KKT
        tolerance ``tol``; returns (t, iterations).

        t and lambda are functions of the sign vector s alone, so a sign
        vector seen before means the iteration cycles.  From its first
        repeat on, each iteration changes only the sign of the violator of
        least index (Murty's rule; Judice-Pires, Comput. Oper. Res. 21,
        1994), which ends for the positive definite A.
        """
        n = len(t)
        if n == 0:
            return t, 0
        A, sigma = self.A, self._sigma
        sigma_c = sigma * c
        lam = Ft - A @ t
        z = t + sigma * lam
        s = np.sign(z) * (np.abs(z) > sigma_c)
        seen = set()  # the sign vectors of the failed iterations
        least_index = False
        for iteration in range(1, max_inner + 1):
            J = s.nonzero()[0]
            t = np.zeros(n)
            holds = True
            if len(J):
                s_J = s[J]
                lam_J = s_J * c[J]
                t[J] = self._slip_solve(J, Ft[J] - lam_J)
                lam = Ft - A @ t
                lam[J] = lam_J
                holds = (s_J * t[J] >= -tol).all()  # no slip value against its sign
            else:
                lam = Ft - A @ t
            if holds and len(J) < n:
                stick = s == 0.0
                holds = (np.abs(lam[stick]) <= c[stick] + tol).all()
            if holds:
                return t, iteration
            if not least_index:
                z = t + sigma * lam
                s_next = np.sign(z) * (np.abs(z) > sigma_c)
                seen.add(s.tobytes())
                least_index = s_next.tobytes() in seen
            if least_index:
                # the friction law node by node; flip the first node that breaks it
                holds = np.where(s == 0.0, np.abs(lam) <= c + tol, s * t >= -tol)
                i = int(np.argmin(holds))
                s_next = s.copy()
                s_next[i] = np.sign(lam[i]) if s[i] == 0.0 else 0.0
            s = s_next
        raise SolverError(
            f"inner solver missed the friction law within {max_inner} "
            f"active-set iterations (tolerance {tol:.3e})"
        )

    def solve(self, F, c, t0=None, *, inner_tol=1e-12, max_inner=50000):
        """Minimize for load ``F`` and nonsmooth coefficients ``c`` (= w_i G_i).

        ``t0`` warm-starts the active sets from a guess of the gamma3
        values.  Each iteration picks the sign s_i of every node from
        t_i + sigma_i lambda_i against +-sigma_i c_i, solves the slip
        block with t = 0 on the stick set, and stops once
        |lambda_i| <= c_i + tol on the stick set and s_i t_i >= -tol on
        the slip set, with tol = inner_tol (1 + max|F_t|); a repeated sign
        vector switches to the least-index rule of ``_iterate``.  Stick
        values are exactly zero.  Returns (u, iterations); a non-finite
        ``t0`` raises ValueError.
        """
        n = len(self.friction)
        c = np.asarray(c, dtype=float)
        t = np.zeros(n) if t0 is None else np.array(t0, dtype=float)
        for name, value in (("c", c), ("t0", t)):
            if value.shape != (n,):
                raise ValueError(f"{name} must have {n} entries, got shape {value.shape}")
        fem.require_finite("t0", t, self.friction)
        if not np.all(c >= 0.0):
            raise SolverError("negative or NaN friction bound coefficient")
        W, Ft = self._reduce_load(F)
        t, iterations = self._iterate(Ft, c, t, self._tolerance(Ft, inner_tol), max_inner)
        return self._lift(t, W), iterations

    def _lift(self, t, W):
        u = np.zeros(self.n_nodes)
        u[self.smooth] = W - self.X @ t
        u[self.friction] = t
        return u


def fixed_point(
    mesh: fem.Mesh,
    g: fem.FrictionBound,
    solver: TrescaSolver,
    F: np.ndarray,
    mu_star: float,
    config: SolverConfig | None = None,
    eta0: np.ndarray | None = None,
):
    """Run the bound-update iteration on a prebuilt inner solver.

    The load is reduced and its inner tolerance set once per run; each
    outer step evaluates the bound, runs the active-set iteration from
    the previous gamma3 values and lifts the result for the increment.
    Returns (u, SolveReport).  Raises SolverError when the smallness
    condition fails without the override flag, when the bound or the
    reduced load is non-finite, or when an iteration cap is exceeded;
    ValueError when ``eta0`` or ``F`` has the wrong length or ``eta0`` a
    non-finite entry.
    """
    cfg = config or SolverConfig()
    c0, c3 = constants.space_constants(mesh)
    k, ok = constants.smallness_margin(g.lipschitz, c0, c3, mu_star)
    if not ok:
        if not cfg.allow_non_contractive:
            raise SolverError(
                f"contraction factor k = {k:.6f} >= 1; the fixed point is not "
                "certified, pass allow_non_contractive to attempt it anyway"
            )
        warnings.warn(f"attempting fixed point with non-contractive k = {k:.6f}")

    # per-run invariants: coordinates and weights of the solver's friction
    # nodes, the Gram matrix of the V-norm and the absolute inner tolerance
    x_free = mesh.nodes[solver.friction]
    w_free = mesh.gamma3_weights[solver.friction]
    gram = fem.gram_matrix(mesh)

    eta = np.zeros(mesh.n_nodes) if eta0 is None else np.array(eta0, dtype=float)
    if eta.shape != (mesh.n_nodes,):
        raise ValueError(f"eta0 must have {mesh.n_nodes} entries, got shape {eta.shape}")
    fem.require_finite("eta0", eta)
    W, Ft = solver._reduce_load(F)
    tol = solver._tolerance(Ft, cfg.inner_tol)
    t = eta[solver.friction]
    increments: list[float] = []
    ratios: list[float] = []
    inner_log: list[int] = []
    converged = False
    iterations = 0
    for m in range(1, cfg.max_outer + 1):
        iterations = m
        G = g(x_free, np.abs(t))
        if not np.isfinite(G).all():
            raise SolverError("friction bound took a non-finite value on gamma3")
        if (G < -1e-14).any():
            raise SolverError("friction bound took a negative value on gamma3")
        c = w_free * np.maximum(G, 0.0)
        t, inner_iterations = solver._iterate(Ft, c, t, tol, cfg.max_inner)
        u_new = solver._lift(t, W)
        d = u_new - eta  # fem.v_norm(mesh, d) on the Gram matrix looked up once
        inc = float(np.sqrt(max(d @ (gram @ d), 0.0)))
        if increments and increments[-1] > 0.0:
            ratios.append(inc / increments[-1])
        increments.append(inc)
        inner_log.append(inner_iterations)
        eta = u_new
        if inc < cfg.outer_tol:
            converged = True
            break
    if not converged:
        raise SolverError(
            f"outer fixed point missed tolerance {cfg.outer_tol} within "
            f"{cfg.max_outer} iterations (last increment {increments[-1]:.3e})"
        )

    report = SolveReport(
        converged=True,
        outer_iterations=iterations,
        increments=increments,
        ratios=ratios,
        inner_sweeps=inner_log,
        c0=c0,
        c3=c3,
        k=k,
        contraction_ok=ok,
        error_bound=k / (1.0 - k) * increments[-1] if ok else None,
    )
    return eta, report


class DiscreteProblem:
    """The discretized problem: stiffness K, load F, Tresca solver and mu_star.

    K and the Tresca factorization depend on the mesh and mu only, so one
    instance solves the problem for any load and friction bound; ``F`` is
    the problem's own load.  A solve gives bitwise the u of a fresh
    ``solve_qvi`` of the same data.  K comes from ``fem.stiffness_matrix``:
    for a scalar mu it is the mesh's cached, read-only matrix, which the
    certificate and the complementarity report of the same data reuse.
    """

    def __init__(self, problem: ProblemData):
        self.problem = problem
        mesh = problem.mesh
        self.K = fem.stiffness_matrix(mesh, problem.mu, problem.mu_star)
        self.F = fem.assemble_load(mesh, problem.f0, problem.f2)
        self.tresca = TrescaSolver(self.K, mesh.free_nodes, mesh.node_sets[fem.GAMMA3])
        self.mu_star = problem.resolved_mu_star()

    def solve(
        self,
        F: np.ndarray,
        g: fem.FrictionBound,
        config: SolverConfig | None = None,
        eta0: np.ndarray | None = None,
    ):
        """(u, SolveReport) for load ``F`` and bound ``g``; see ``fixed_point``."""
        return fixed_point(self.problem.mesh, g, self.tresca, F, self.mu_star, config, eta0)


def solve_qvi(problem: ProblemData, config: SolverConfig | None = None):
    """Fixed-point solve of the quasivariational problem.

    Returns (u, SolveReport); see ``fixed_point`` for failure modes.
    """
    discrete = DiscreteProblem(problem)
    return discrete.solve(discrete.F, problem.g, config)


# ---------------------------------------------------------------------------
# membership certificate

# seeded random test fields are drawn and tested this many at a time, so the
# certificate's memory does not grow with n_random
_RANDOM_BLOCK = 16


def membership_violation(
    mesh: fem.Mesh,
    mu,
    u: np.ndarray,
    theta: TykhonovIndex,
    *,
    directions: Sequence[np.ndarray] | None = None,
    n_random: int = 100,
    seed: int = 0,
    basis_scale: float = 1.0,
    stiffness=None,
) -> float:
    """Largest positive residual of the relaxed inequality over a test set.

    The candidate ``u`` belongs to the approximating set of ``theta`` when

        a(u, v - u) + j(u, v) - j(u, u) + eps ||u|| ||v - u|| >= F.(v - u)

    holds for every direction v.  The default test set takes both signs of
    every scaled nodal basis field around u, ``n_random`` seeded random
    fields, v = 0 and v = 2u; ``directions`` replaces it by the given
    fields.  All basis fields are tested at once, and the random fields in
    blocks of rows that share one Gram-matrix product per norm.  The
    stiffness matrix of ``mu`` comes from ``fem.stiffness_matrix`` (cached
    per mesh for a scalar mu) unless the caller passes it as ``stiffness``.
    Returns a Python float; a value <= 1e-8 certifies membership against
    the set.
    """
    K = fem.stiffness_matrix(mesh, mu) if stiffness is None else stiffness
    F = fem.assemble_load(mesh, theta.f0, theta.f2)
    res = F - K @ u
    ju_u = fem.eval_j(mesh, theta.g, u, u)
    norm_u = fem.v_norm(mesh, u)
    eps = theta.eps
    gram = fem.gram_matrix(mesh)

    # lumped friction weights w_i g(x_i, |u_i|), zero off gamma3
    g3 = mesh.node_sets[fem.GAMMA3]
    wG = np.zeros(mesh.n_nodes)
    if len(g3):
        wG[g3] = mesh.gamma3_weights[g3] * theta.g(mesh.nodes[g3], np.abs(u[g3]))

    def v_norms(V):
        return np.sqrt(np.maximum(np.einsum("ij,ji->i", V, gram @ V.T), 0.0))

    def worst_residual(V):
        """Largest residual over the rows of V, at least zero."""
        D = V - u
        # wG vanishes off gamma3; with eps = 0 the norm term is exactly zero
        rows = D @ res - np.abs(V[:, g3]) @ wG[g3] + ju_u
        if eps > 0.0:
            rows -= eps * norm_u * v_norms(D)
        return float(np.max(rows, initial=0.0))

    if directions is not None:
        V = np.asarray(directions, dtype=float).reshape(-1, mesh.n_nodes)
        return worst_residual(V)

    # v = u +- s phi_i for every free node i
    s = basis_scale
    free = mesh.free_nodes
    base = s * np.sqrt(np.maximum(gram.diagonal()[free], 0.0)) * eps * norm_u
    sign = np.array([[1.0], [-1.0]])
    uf = u[free]
    nodal = sign * s * res[free] - base - wG[free] * (np.abs(uf + sign * s) - np.abs(uf))
    worst = float(np.max(nodal, initial=0.0))

    # the ray through the origin: v = 0 and v = 2u
    worst = max(worst, float(-res @ u) + ju_u - eps * norm_u**2)
    worst = max(worst, float(res @ u) - ju_u - eps * norm_u**2)

    rng = np.random.default_rng(seed)
    scale = 1.0 + norm_u
    g1 = mesh.node_sets[fem.GAMMA1]
    for start in range(0, n_random, _RANDOM_BLOCK):
        V = rng.standard_normal((min(_RANDOM_BLOCK, n_random - start), mesh.n_nodes))
        V[:, g1] = 0.0
        nv = v_norms(V)
        V *= np.divide(scale, nv, out=np.ones_like(nv), where=nv > 0.0)[:, None]
        worst = max(worst, worst_residual(V))
    return worst


# ---------------------------------------------------------------------------
# solution diagnostics

def complementarity_report(problem: ProblemData, u: np.ndarray):
    """Per-node friction-law residuals of a converged solution.

    Returns (idx, lam, G, stick_slack, comp) with stick_slack = |lam| - G
    (nonpositive up to solver tolerance) and comp = lam*u + G*|u| (zero up
    to solver tolerance).
    """
    mesh = problem.mesh
    K = fem.stiffness_matrix(mesh, problem.mu, problem.mu_star)
    F = fem.assemble_load(mesh, problem.f0, problem.f2)
    idx = mesh.node_sets[fem.GAMMA3]
    lam = ((K @ u) - F)[idx] / mesh.gamma3_weights[idx]
    G = problem.g(mesh.nodes[idx], np.abs(u[idx]))
    stick_slack = np.abs(lam) - G
    comp = lam * u[idx] + G * np.abs(u[idx])
    return idx, lam, G, stick_slack, comp
