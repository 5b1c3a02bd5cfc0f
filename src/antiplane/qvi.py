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
gamma3 nodes T.  ``TrescaSolver`` minimizes it in the free-T
(capacitance) form on one banded Cholesky factorization of the free
block with T last, whose trailing block gives Z = (K_ff^-1)_TT: a
primal-dual active-set iteration (semismooth Newton; Hintermueller-Ito-
Kunisch 2002, Stadler 2004) of dense |T|-sized steps, with stick nodes
held at zero by a small dense solve, and one band solve to lift u.
``DiscreteProblem`` builds that solver and resolves c0, c3 and the other
invariants of a solve once per problem, for any number of loads and
friction bounds; ``DiscreteProblem.solve`` runs ``fixed_point``.  The
membership certificate solves a box QP of the same kind on the inverse
Gram block: the dual-norm distance of the residual to the friction
subdifferential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

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
        if not self.eps >= 0.0:  # also refuses NaN
            raise ValueError(f"eps must be nonnegative, got {self.eps}")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps of the fixed point.

    ``outer_tol`` bounds the final V-norm increment of the bound update and
    ``max_outer`` caps its iterations.  ``inner_tol`` is the relative
    tolerance of the inner friction-law (KKT) test and ``max_inner`` caps
    the active-set iterations of one frozen-bound solve.  Both caps must
    be integers of at least 1 and both tolerances positive (ValueError
    otherwise).
    """

    outer_tol: float = 1e-10
    inner_tol: float = 1e-12
    max_outer: int = 200
    max_inner: int = 50000
    allow_non_contractive: bool = False

    def __post_init__(self):
        for name in ("max_outer", "max_inner"):
            fem.require_count(name, getattr(self, name))
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


def _box_qp(Z, b, c, t, lam, stick_solve, sigma, inner_tol, max_inner, what):
    """Minimize 0.5 lam'Z lam - b'lam over the box |lam_i| <= c_i, for a
    symmetric positive definite Z, by a primal-dual active-set iteration
    from the guess t of the slack t = b - Z lam and the multiplier lam
    (None: lam = Z^-1 (b - t), the multiplier of that slack).

    The box's KKT conditions are those of the friction law: a slip node
    (sign s_i != 0) has lam_i = s_i c_i and s_i t_i >= 0, a stick node
    (s_i = 0) has t_i = 0 and |lam_i| <= c_i.  Each iteration is dense
    algebra on Z: t = b - Z lam with the slip multipliers, then
    ``stick_solve(I, rhs)`` = Z_II^-1 rhs holds the stick set I at zero.
    The next signs come from t_i + sigma_i lam_i against +-sigma_i c_i.
    t and lam depend on the sign vector s alone, so from the first
    repeated s on, each iteration flips only the violator of least index
    (Murty's rule; Judice-Pires, Comput. Oper. Res. 21, 1994), which ends
    for positive definite Z.  Stops once both conditions hold within
    tol = inner_tol (1 + max c); returns (lam, I, iterations).  Raises
    SolverError, naming ``what``, after ``max_inner`` iterations.
    """
    if lam is None:
        lam = stick_solve(np.arange(len(b)), b - t)
    tol = inner_tol * (1.0 + c.max())
    # a node off zero slips its way, a node at zero slips where its
    # multiplier exceeds the bound (not on a stale one below a grown bound)
    s = np.sign(t)
    at_zero = (t == 0.0).nonzero()[0]
    if len(at_zero):
        s[at_zero] = np.sign(lam[at_zero]) * (np.abs(lam[at_zero]) > c[at_zero])
    seen = None  # the sign vectors of the failed iterations, made on the first
    least_index = False
    for iteration in range(1, max_inner + 1):
        lam = s * c
        t = b - Z @ lam
        I = (s == 0.0).nonzero()[0]
        if len(I):
            lam[I] = stick_solve(I, t[I])
            t -= Z[:, I] @ lam[I]
            t[I] = 0.0
        # no slip value against its sign, no stick multiplier above its bound
        if (s * t).min() >= -tol and (not len(I) or (np.abs(lam[I]) <= c[I] + tol).all()):
            break
        if seen is None:
            seen = set()
            sigma_c = sigma * c
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
    else:
        raise SolverError(
            f"{what} missed the friction law within {max_inner} "
            f"active-set iterations (tolerance {tol:.3e})"
        )
    return lam, I, iteration


class TrescaSolver:
    """Exact minimizer of 0.5 v'Kv - F'v + sum_i c_i |v_i| over V_h.

    The free-T (capacitance) form on one banded Cholesky factorization of
    the free block K_ff with the gamma3 nodes T last: ``factor``, the
    (solve, Z) pair of ``fem.spd_factor`` that ``DiscreteProblem`` makes
    or, for a scalar mu, takes from the mesh's cache, with Z =
    (K_ff^-1)_TT read off the factor's trailing block; ``fixed_point``
    runs the solver.  The active-set iteration of ``_box_qp`` is dense
    algebra on Z: it splits T into slip nodes, whose multipliers +-c_i
    enter the load, and stick nodes I, held at zero by the multipliers
    of Z_II lambda_I = t_I (Proskurowski-Widlund 1976).
    The LU factors of Z_II are kept while I is unchanged, and the last
    multiplier for the next warm start.
    """

    def __init__(self, K, free_nodes, gamma3_nodes, factor):
        self.n_nodes = K.shape[0]
        self.free = np.sort(np.asarray(free_nodes, dtype=np.int64))
        on_gamma3 = np.zeros(self.n_nodes, dtype=bool)
        on_gamma3[np.asarray(gamma3_nodes, dtype=np.int64)] = True
        self._pos = np.flatnonzero(on_gamma3[self.free])  # gamma3 rows of the free block
        self.friction = T = self.free[self._pos]
        diag = K.diagonal()
        if np.any(diag[self.free] <= 0.0):
            raise SolverError("stiffness matrix has a nonpositive diagonal entry")
        self._solve, self._Z = factor
        # With sigma = 1/K_ii the primal guess sways the set choice and the
        # iteration can cycle between sets; a sigma three orders larger
        # leaves the choice to the multiplier.
        self._sigma = 1e3 / diag[T]
        self._stick = (None, None)  # stick set I (as bytes), LU factors of Z_II
        self._lam = None  # multiplier of the last solve

    def reduce(self, F):
        """w = K_ff^-1 F_f for a load F of n_nodes entries, or the columns of
        an (n_nodes, k) block F, in one band solve; ValueError for another shape."""
        F = np.asarray(F, dtype=float)
        if F.ndim not in (1, 2) or len(F) != self.n_nodes:
            raise ValueError(f"F must have {self.n_nodes} entries, got shape {F.shape}")
        return self._solve(F[self.free])

    def _stick_solve(self, I, rhs):
        """Z_II^-1 rhs on the LU factors of Z_II, kept while I is unchanged."""
        key = I.tobytes()
        if key != self._stick[0]:
            self._stick = (key, dgetrf(self._Z[np.ix_(I, I)])[:2])
        return dgetrs(*self._stick[1], rhs)[0]

    def _iterate(self, w, c, t, lam, inner_tol, max_inner):
        """``_box_qp`` on Z and w_T from the gamma3 guess t and multiplier
        lam, by default the exact reaction S_TT (w_T - t) = Z^-1 (w_T - t)
        of the gamma3 values t; returns (u, iterations) and keeps the final
        multiplier.  One band solve lifts that multiplier to u.
        """
        pos = self._pos
        if len(pos) == 0:
            u = np.zeros(self.n_nodes)
            u[self.free] = w
            return u, 0
        lam, I, iteration = _box_qp(
            self._Z, w[pos], c, t, lam, self._stick_solve, self._sigma, inner_tol, max_inner,
            "inner solver",
        )
        self._lam = lam
        rhs = np.zeros(len(self.free))
        rhs[pos] = lam
        u = np.zeros(self.n_nodes)
        u[self.free] = w - self._solve(rhs)
        if len(I):
            u[self.friction[I]] = 0.0
        return u, iteration


def _bound(g: fem.FrictionBound, points: np.ndarray, r: np.ndarray) -> np.ndarray:
    """g(points, r) clipped at zero; SolverError when a value is not finite
    or is negative beyond rounding."""
    G = g(points, r)  # a new array: clipped in place
    lo, hi = np.minimum.reduce(G, initial=0.0), np.maximum.reduce(G, initial=0.0)
    if not (lo >= -1e-14 and hi < np.inf):  # a NaN fails both
        if not np.isfinite(G).all():
            raise SolverError("friction bound took a non-finite value on gamma3")
        raise SolverError("friction bound took a negative value on gamma3")
    return np.maximum(G, 0.0, out=G)


def _product(A):
    """x -> A @ x for a float64 CSR matrix A and a float vector x, bitwise
    ``A @ x``: it calls the kernel that ``@`` calls after its operator
    dispatch, which takes about 3 us a product (4.7 against 1.4 us for
    the Gram matrix of a 4x4 mesh, timeit, 2-vCPU host)."""
    n, m = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def product(x):
        y = np.zeros(n)
        _csr_matvec(n, m, indptr, indices, data, x, y)
        return y

    return product


_DEFAULT_CONFIG = SolverConfig()


def fixed_point(
    discrete: "DiscreteProblem",
    w: np.ndarray,
    g: fem.FrictionBound,
    config: SolverConfig | None = None,
    eta0: np.ndarray | None = None,
):
    """Run the bound-update iteration on the Tresca solver of ``discrete``.

    ``w`` is the reduced load K_ff^-1 F_f (``TrescaSolver.reduce``), so a
    run makes no band solve for its load.  Each outer step evaluates the
    bound and runs the active-set iteration from the previous gamma3
    values and multiplier; the first step starts from ``eta0`` on gamma3
    and the solver's last multiplier, or without ``eta0`` from zero and
    the default multiplier of ``TrescaSolver._iterate``.  Returns (u,
    SolveReport).  Raises SolverError when the smallness condition fails
    without the override flag, when the bound or ``w`` is non-finite on
    gamma3, when an increment is not finite, or when an iteration cap is
    exceeded; ValueError when ``eta0`` has the wrong length or a
    non-finite entry.
    """
    cfg = config or _DEFAULT_CONFIG
    solver, c0, c3 = discrete.tresca, discrete.c0, discrete.c3
    k, ok = constants.smallness_margin(g.lipschitz, c0, c3, discrete.mu_star)
    if not ok:
        if not cfg.allow_non_contractive:
            raise SolverError(
                f"contraction factor k = {k:.6f} >= 1; the fixed point is not "
                "certified, pass allow_non_contractive to attempt it anyway"
            )
        warnings.warn(f"attempting fixed point with non-contractive k = {k:.6f}")

    # eta0 is read only: eta is rebound, never written, and never returned as given
    n = solver.n_nodes
    eta = np.zeros(n) if eta0 is None else np.asarray(eta0, dtype=float)
    if eta.shape != (n,):
        raise ValueError(f"eta0 must have {n} entries, got shape {eta.shape}")
    fem.require_finite("eta0", eta)
    if not np.isfinite(w[solver._pos]).all():
        raise SolverError("load is non-finite on the gamma3 block")
    friction, iterate, gram = solver.friction, solver._iterate, discrete.gram_product
    weights, points = discrete.weights, discrete.points
    inner_tol, max_inner = cfg.inner_tol, cfg.max_inner
    t = eta[friction]
    lam = None if eta0 is None else solver._lam
    increments: list[float] = []
    inner_log: list[int] = []
    for m in range(1, cfg.max_outer + 1):
        c = weights * _bound(g, points, np.abs(t))
        u_new, inner_iterations = iterate(w, c, t, lam, inner_tol, max_inner)
        t, lam = u_new[friction], solver._lam
        d = u_new - eta  # fem.v_norm(mesh, d) on the Gram product made once
        inc = math.sqrt(max(d @ gram(d), 0.0))
        increments.append(inc)
        inner_log.append(inner_iterations)
        eta = u_new
        if inc < cfg.outer_tol:
            break
        if not inc < math.inf:  # also NaN: the iterate's V-norm overflows
            raise SolverError(f"outer fixed point increment {inc} is not finite at step {m}")
    else:
        raise SolverError(
            f"outer fixed point missed tolerance {cfg.outer_tol} within "
            f"{cfg.max_outer} iterations (last increment {increments[-1]:.3e})"
        )

    report = SolveReport(
        converged=True,
        outer_iterations=m,
        increments=increments,
        ratios=[b / a for a, b in zip(increments, increments[1:]) if a > 0.0],
        inner_sweeps=inner_log,
        c0=c0,
        c3=c3,
        k=k,
        contraction_ok=ok,
        error_bound=k / (1.0 - k) * increments[-1] if ok else None,
    )
    return eta, report


class DiscreteProblem:
    """Stiffness K, load F, Tresca solver, mu_star, the constants (c0, c3),
    the friction nodes' coordinates ``points`` and weights ``weights``
    and the product ``gram_product`` with the Gram matrix of the V-norm,
    each resolved once.

    For a scalar mu, K is the mesh's cached, read-only matrix, which the
    certificates of the same data reuse, and the solver runs on the
    mesh's factor of the free unit stiffness block (``fem.free_block``),
    which c0 shares.  Any other mu drops that factor from the mesh's
    cache (``fem.release_free_block``) and factors its own K_ff on the
    mesh's band layout (``fem.free_factor``), so that one band is held at
    a time; a later scalar mu on the mesh factors the unit block again.
    All but F depend on the mesh and mu only, so one instance solves the
    problem for any load and friction bound, bitwise as a fresh
    ``solve_qvi`` of the same data would.
    """

    def __init__(self, problem: ProblemData):
        self.problem = problem
        mesh, mu = problem.mesh, problem.mu
        self.K = fem.stiffness_matrix(mesh, mu, problem.mu_star)
        self.F = fem.assemble_load(mesh, problem.f0, problem.f2)
        # the constants first: c3 drops the Gram band before the stiffness band is built
        self.c0, self.c3 = constants.space_constants(mesh)
        if not (callable(mu) or np.ndim(mu)):  # mu S_ff: the unit block's factor over mu
            _, unit, Z = fem.free_block(mesh)
            factor = (unit, Z) if mu == 1.0 else (lambda b: unit(b) / mu, Z / mu)
        else:  # c0 is cached: the unit band goes before K_ff's is made
            fem.release_free_block(mesh)
            try:
                factor = fem.free_factor(mesh, self.K)[1:]
            except fem.FactorizationError as exc:
                raise SolverError(f"stiffness block factorization failed: {exc}") from exc
        self.tresca = TrescaSolver(self.K, mesh.free_nodes, mesh.node_sets[fem.GAMMA3], factor)
        self.mu_star = problem.resolved_mu_star()
        self.points = mesh.nodes[self.tresca.friction]
        self.weights = mesh.gamma3_weights[self.tresca.friction]
        self.gram_product = _product(fem.gram_matrix(mesh))

    def solve(
        self,
        F: np.ndarray,
        g: fem.FrictionBound,
        config: SolverConfig | None = None,
        eta0: np.ndarray | None = None,
    ):
        """(u, SolveReport): ``fixed_point`` on ``tresca.reduce(F)`` and bound ``g``."""
        return fixed_point(self, self.tresca.reduce(F), g, config, eta0)


def solve_qvi(problem: ProblemData, config: SolverConfig | None = None):
    """Fixed-point solve of the quasivariational problem.

    Returns (u, SolveReport); see ``fixed_point`` for failure modes.
    """
    discrete = DiscreteProblem(problem)
    return discrete.solve(discrete.F, problem.g, config)


# ---------------------------------------------------------------------------
# membership certificate

def membership_violation(
    mesh: fem.Mesh,
    mu,
    u: np.ndarray,
    theta: TykhonovIndex,
    *,
    seed: int = 0,
    stiffness=None,
    factor=None,
) -> float:
    """How far ``u`` lies outside the approximating set of ``theta``.

    The candidate ``u`` belongs to the set when

        a(u, v - u) + j(u, v) - j(u, u) + eps ||u|| ||v - u|| >= F.(v - u)

    holds for every v in V_h.  As v -> j(u, v) is convex and positively
    homogeneous, that holds exactly when the residual r = F - Ku lies
    within eps ||u||_V of the subdifferential of j(u, .) at u, in the dual
    norm of V_h (the subdifferential sum rule; Rockafellar, Convex
    Analysis, Thm. 23.8).  The value is max(0, dist - eps ||u||_V), a
    residual per unit ||v - u||_V: no v violates the inequality by more
    than ||v - u||_V times it.

    The subdifferential is xi_i = w_i g_i sign u_i on the gamma3 nodes
    that slip, the box |xi_i| <= w_i g_i on those that stick (u_i == 0),
    I, and zero off gamma3, with g_i = g(x_i, |u_i|).  With z = r_f - xi
    and G the Gram matrix of the V-norm, dist^2 is the least z'G_ff^-1 z
    over the box: ``_box_qp`` on the block Z_II of Z = (G_ff^-1)_TT.  Its
    minimizer is clipped into the box and dist taken from the explicit z
    with a second band solve; any xi in the box bounds dist from above.
    G_ff depends on the mesh alone: a caller that certifies several
    candidates on one mesh passes its factor once made as ``factor``, the
    (block, solve, Z) triple of ``fem.free_factor(mesh,
    fem.gram_matrix(mesh))``; without it G_ff is cut and factored on the
    mesh's band layout on each call.  The stiffness matrix of ``mu`` comes
    from ``fem.stiffness_matrix`` (cached per mesh for a scalar mu) unless
    the caller passes it as ``stiffness``; ``seed`` is accepted and not
    used.  Returns a Python float; a value <= 1e-8 certifies membership.
    A ``factor`` whose block or Z does not have the shape of this mesh's
    free and gamma3 nodes raises ValueError before any solve.  A bound not
    finite or negative at u raises SolverError, and so does a QP that
    misses the friction law within the default ``SolverConfig().max_inner``
    iterations.
    """
    free, g3 = mesh.free_nodes, mesh.node_sets[fem.GAMMA3]
    if factor is not None:
        shapes = (factor[0].shape, factor[2].shape)
        expected = ((len(free), len(free)), (len(g3), len(g3)))
        if shapes != expected:
            raise ValueError(
                f"factor has block and Z shapes {shapes}, but this mesh's free and "
                f"gamma3 nodes give {expected}"
            )
    if len(free) == 0:  # V_h = {0}: no direction to test
        return 0.0
    K = fem.stiffness_matrix(mesh, mu) if stiffness is None else stiffness
    F = fem.assemble_load(mesh, theta.f0, theta.f2)
    z = (F - K @ u)[free]
    T = np.searchsorted(free, g3)  # gamma3 rows of the free block, in the order of Z
    c = mesh.gamma3_weights[g3] * _bound(theta.g, mesh.nodes[g3], np.abs(u[g3]))
    gram = fem.gram_matrix(mesh)
    _, solve, Z = fem.free_factor(mesh, gram) if factor is None else factor
    z[T] -= np.sign(u[g3]) * c  # xi on the slip nodes; zero on the stick nodes
    I = (u[g3] == 0.0).nonzero()[0]
    if len(I):
        Z_II = Z[np.ix_(I, I)]
        sigma = 1e3 / gram.diagonal()[g3[I]]  # as TrescaSolver's, on the form of Z's inverse
        cfg = _DEFAULT_CONFIG
        xi, _, _ = _box_qp(
            Z_II, solve(z)[T[I]], c[I], np.zeros(len(I)), None,
            lambda J, rhs: dgetrs(*dgetrf(Z_II[np.ix_(J, J)])[:2], rhs)[0],
            sigma, cfg.inner_tol, cfg.max_inner, "membership certificate",
        )
        z[T[I]] -= np.clip(xi, -c[I], c[I])
    dist = math.sqrt(max(z @ solve(z), 0.0))
    return max(dist - theta.eps * fem.v_norm(mesh, u), 0.0)


# ---------------------------------------------------------------------------
# solution diagnostics

def complementarity_report(problem: ProblemData, u: np.ndarray):
    """Per-node friction-law residuals of a converged solution.

    Returns (idx, lam, G, stick_slack, comp) with stick_slack = |lam| - G
    (nonpositive up to solver tolerance) and comp = lam*u + G*|u| (zero up
    to solver tolerance); SolverError when G is not finite or negative.
    """
    mesh = problem.mesh
    K = fem.stiffness_matrix(mesh, problem.mu, problem.mu_star)
    F = fem.assemble_load(mesh, problem.f0, problem.f2)
    idx = mesh.node_sets[fem.GAMMA3]
    lam = ((K @ u) - F)[idx] / mesh.gamma3_weights[idx]
    G = _bound(problem.g, mesh.nodes[idx], np.abs(u[idx]))
    stick_slack = np.abs(lam) - G
    comp = lam * u[idx] + G * np.abs(u[idx])
    return idx, lam, G, stick_slack, comp
