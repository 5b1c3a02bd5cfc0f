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
(capacitance) form on one band factorization (``fem.spd_factor``) of the
free block with T last, whose trailing block gives Z = (K_ff^-1)_TT: a
primal-dual active-set iteration (semismooth Newton; Hintermueller-Ito-
Kunisch 2002, Stadler 2004) of dense |T|-sized steps, with stick nodes
held at zero by a small dense solve, and one band solve to lift u.
``DiscreteProblem`` builds that solver and resolves c0, c3 and the other
invariants of a solve once per problem, for any number of loads and
friction bounds; ``DiscreteProblem.solve`` runs ``fixed_point``.  The
membership certificate solves a box QP of the same kind for the dual-norm
distance of the residual to the friction subdifferential, on the unit
stiffness factor and, where that bound does not certify, the Gram block.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import constants, fem


CERT_TOL = 1e-8  # a membership or admissibility violation at most this certifies
KKT_REL_TOL = 1e-12  # relative friction-law (KKT) tolerance of ``_box_qp``
MAX_ACTIVE_SET = 50000  # iteration cap of ``_box_qp``
SIGN_WEIGHT = 1e3  # sigma = SIGN_WEIGHT / diag(K)_T: ``_box_qp``'s sign test weight
OUTER_TOL = 1e-10  # V-norm increment of the bound update at which ``fixed_point`` stops
MAX_OUTER = 1000  # iteration cap of ``fixed_point``


class SolverError(RuntimeError):
    """Raised when a solve misses its tolerance or the data is unusable."""


@dataclass(frozen=True)
class ProblemData:
    """Data of one friction problem instance.

    ``mu`` and ``f0`` follow the coefficient conventions of the assembly
    routines (scalar, callable or per-element array); ``f2`` likewise on
    gamma2 facets.  ``mu_star`` is the certified lower bound of mu; when
    omitted it is resolved to the smallest sampled value.
    ``allow_non_contractive`` lets ``fixed_point`` attempt a problem whose
    contraction factor k is at least 1, with a warning, where it would
    raise SolverError.
    """

    mesh: fem.Mesh
    mu: object
    f0: object
    f2: object
    g: fem.FrictionBound
    mu_star: float | None = None
    allow_non_contractive: bool = False

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
        if not 0.0 <= self.eps < np.inf:  # also refuses NaN
            raise ValueError(f"eps must be nonnegative and finite, got {self.eps}")


@dataclass
class SolveReport:
    converged: bool
    outer_iterations: int
    increments: list[float]
    ratios: list[float]
    # active-set iterations of the inner solve, one entry per outer step;
    # 0 for a last step whose bound had not moved, which runs no inner solve
    inner_sweeps: list[int]
    c0: float
    c3: float
    k: float
    contraction_ok: bool
    # a-posteriori bound ||u - u_m||_V <= k/(1-k) ||u_m - u_{m-1}||_V of the
    # returned iterate when k < 1, else None; reported only, not a stop test
    error_bound: float | None = None


def _finite_free(values, free, what):
    """values[free] of a vector or block ``values`` with a row per node;
    SolverError naming ``what`` and the first free node of a non-finite row."""
    out = values[free]
    finite = np.isfinite(out)
    if not finite.all():
        row = np.argmin(finite.reshape(len(out), -1).all(axis=1))
        raise SolverError(f"{what} is non-finite at node {free[row]}")
    return out


def _box_qp(Z, b, c, t, lam, stick_solve, sigma, what):
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
    tol = KKT_REL_TOL (1 + max c); returns (lam, I, iterations).  A default
    start at which every node sticks (t = 0 and |lam| <= c) is returned
    as the one iteration it would take, with I the whole box: that
    iteration would solve Z lam = b again and get this lam bitwise.  Raises
    SolverError, naming ``what``, after ``MAX_ACTIVE_SET`` iterations.
    """
    start = lam is None
    if start:
        lam = stick_solve(np.arange(len(b)), b - t)
    tol = KKT_REL_TOL * (1.0 + c.max())
    # a node off zero slips its way, a node at zero slips where its
    # multiplier exceeds the bound (not on a stale one below a grown bound)
    s = np.sign(t)
    at_zero = (t == 0.0).nonzero()[0]
    if len(at_zero):
        s[at_zero] = np.sign(lam[at_zero]) * (np.abs(lam[at_zero]) > c[at_zero])
    if start and not s.any():  # all stick: the first iteration gives this lam and stops
        return lam, np.arange(len(b)), 1
    seen = None  # the sign vectors of the failed iterations, made on the first
    least_index = False
    for iteration in range(1, MAX_ACTIVE_SET + 1):
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
            f"{what} missed the friction law within {MAX_ACTIVE_SET} "
            f"active-set iterations (tolerance {tol:.3e})"
        )
    return lam, I, iteration


@dataclass(frozen=True, eq=False)
class MeshIndex:
    """What a solve and a certificate read of the mesh alone: ``n_nodes``,
    the sorted free nodes ``free``, the gamma3 rows ``pos`` of the free
    block and their nodes ``friction`` (T), the unit stiffness diagonal
    ``diagonal`` on T, the coordinates ``points`` and lumped weights
    ``weights`` of T, and the product ``gram_product`` with the Gram
    matrix of the V-norm.  ``mesh_index`` makes it once per mesh."""

    n_nodes: int
    free: np.ndarray
    pos: np.ndarray
    friction: np.ndarray
    diagonal: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    gram_product: Callable[[np.ndarray], np.ndarray]


def mesh_index(mesh: fem.Mesh) -> MeshIndex:
    """The ``MeshIndex`` of the mesh, kept in its cache; read-only arrays."""

    def build():
        free, T = mesh.free_nodes, mesh.node_sets[fem.GAMMA3].copy()  # gamma3 nodes are free
        arrays = (np.searchsorted(free, T), T, fem.stiffness_matrix(mesh, 1.0).diagonal()[T],
                  mesh.nodes[T], mesh.gamma3_weights[T])
        for array in arrays:
            array.flags.writeable = False
        return MeshIndex(mesh.n_nodes, free, *arrays, fem.csr_product(fem.gram_matrix(mesh)))

    return fem.cached(mesh, "mesh index", build)


class TrescaSolver:
    """Exact minimizer of 0.5 v'Kv - F'v + sum_i c_i |v_i| over V_h.

    The free-T (capacitance) form on one band factorization of the free
    block K_ff with the gamma3 nodes T last: ``factor``, the
    (solve, Z) pair of ``fem.spd_factor`` that ``DiscreteProblem`` makes
    or, for a scalar mu, takes from the mesh's cache, with Z =
    (K_ff^-1)_TT read off the factor's trailing block; ``fixed_point``
    runs the solver on the nodes of ``index``, a ``MeshIndex``.  The
    active-set iteration of ``_box_qp`` is dense algebra on Z: it splits T
    into slip nodes, whose multipliers +-c_i enter the load, and stick
    nodes I, held at zero by the multipliers of Z_II lambda_I = t_I
    (Proskurowski-Widlund 1976).  Its sign test weighs the multiplier by
    ``sigma`` = SIGN_WEIGHT / diag(K)_T, three orders above 1/K_ii, at
    which the primal guess sways the set choice and the iteration can
    cycle (a sigma not positive and finite raises SolverError).  The LU
    factors of Z_II are kept while I is unchanged, and the last
    multiplier for the next warm start.
    """

    def __init__(self, index, factor, sigma):
        if not ((sigma > 0.0) & (sigma < np.inf)).all():  # also NaN
            raise SolverError("stiffness matrix has a nonpositive diagonal entry")
        self.n_nodes, self.free, self.friction = index.n_nodes, index.free, index.friction
        self._pos = index.pos  # gamma3 rows of the free block
        self._solve, self._Z = factor
        self._sigma = sigma
        self._stick = (None, None)  # stick set I (as bytes), LU factors of Z_II
        self._lam = None  # multiplier of the last solve

    def reduce(self, F):
        """w = K_ff^-1 F_f for a load F of n_nodes entries, or the columns of
        an (n_nodes, k) block F, in one band solve; ValueError for another shape,
        SolverError naming the first free node where F is not finite."""
        F = np.asarray(F, dtype=float)
        if F.ndim not in (1, 2) or len(F) != self.n_nodes:
            raise ValueError(f"F must have {self.n_nodes} entries, got shape {F.shape}")
        return self._solve(_finite_free(F, self.free, "load"))

    def _stick_solve(self, I, rhs):
        """Z_II^-1 rhs on the LU factors of Z_II, kept while I is unchanged."""
        key = I.tobytes()
        if key != self._stick[0]:
            self._stick = (key, dgetrf(self._Z[np.ix_(I, I)])[:2])
        return dgetrs(*self._stick[1], rhs)[0]

    def _iterate(self, w, c, t, lam):
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
            self._Z, w[pos], c, t, lam, self._stick_solve, self._sigma, "inner solver"
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


def fixed_point(
    discrete: "DiscreteProblem",
    w: np.ndarray,
    g: fem.FrictionBound,
    eta0: np.ndarray | None = None,
):
    """Run the bound-update iteration on the Tresca solver of ``discrete``.

    ``w`` is the reduced load K_ff^-1 F_f (``TrescaSolver.reduce``), so a
    run makes no band solve for its load.  Each outer step evaluates the
    bound and runs the active-set iteration from the previous gamma3
    values and multiplier; the first step starts from ``eta0`` on gamma3
    and the solver's last multiplier, or without ``eta0`` from zero and
    the default multiplier of ``TrescaSolver._iterate``.  A step whose
    coefficients equal the previous step's bitwise (a bound that does not
    depend on the slip, or a slip that did not move) has its Tresca problem
    solved by the previous iterate: the run records increment 0.0 and no
    inner iteration for it and stops, with no iteration or lift.  The test
    reads the bound's values, not its declared ``lipschitz``.  Any other
    run stops at the first increment below ``OUTER_TOL``.  Returns (u,
    SolveReport).  Raises SolverError when the smallness condition fails
    and ``discrete.problem`` does not set ``allow_non_contractive``, when
    the bound or ``w`` is non-finite on gamma3, when an increment is not
    finite, or when ``MAX_OUTER`` steps miss ``OUTER_TOL``; ValueError
    when ``eta0`` has the wrong length or a non-finite entry.
    """
    solver, c0, c3 = discrete.tresca, discrete.c0, discrete.c3
    k, ok = constants.smallness_margin(g.lipschitz, c0, c3, discrete.mu_star)
    if not ok:
        if not discrete.problem.allow_non_contractive:
            raise SolverError(
                f"contraction factor k = {k:.6f} >= 1; the fixed point is not certified, "
                "set ProblemData.allow_non_contractive to attempt it anyway"
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
    t = eta[friction]
    lam = None if eta0 is None else solver._lam
    increments: list[float] = []
    inner_log: list[int] = []
    last_c = None  # the bytes of the previous step's coefficients
    for m in range(1, MAX_OUTER + 1):
        c = weights * _bound(g, points, np.abs(t))
        key = c.tobytes()
        if key == last_c:  # the bound has not moved: eta solves this step's problem
            increments.append(0.0)
            inner_log.append(0)
            break
        last_c = key
        u_new, inner_iterations = iterate(w, c, t, lam)
        t, lam = u_new[friction], solver._lam
        d = u_new - eta  # fem.v_norm(mesh, d) on the Gram product made once
        inc = math.sqrt(max(d @ gram(d), 0.0))
        increments.append(inc)
        inner_log.append(inner_iterations)
        eta = u_new
        if inc < OUTER_TOL:
            break
        if not inc < math.inf:  # also NaN: the iterate's V-norm overflows
            raise SolverError(f"outer fixed point increment {inc} is not finite at step {m}")
    else:
        raise SolverError(
            f"outer fixed point missed tolerance {OUTER_TOL} within "
            f"{MAX_OUTER} iterations (last increment {increments[-1]:.3e})"
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
    """Tresca solver, mu_star, the constants (c0, c3), the friction nodes'
    coordinates ``points`` and weights ``weights``, the product
    ``gram_product`` with the Gram matrix of the V-norm and the stiffness
    matrix K, each resolved once.  It holds no load; ``solve`` takes an
    assembled one.  The nodes, points, weights and Gram product are the
    mesh's ``MeshIndex`` (``mesh_index``).

    mu is sampled and checked once (``fem.modulus_values``) before anything
    is made, and mu_star defaults to the least sampled value.  For a
    scalar mu the problem assembles nothing: the solver runs on the mesh's
    factor of the free unit stiffness block (``fem.free_block``), which c0
    shares, divided by mu, with sigma = SIGN_WEIGHT / (mu diag(S)_T), and
    K, made on first read, is the mesh's cached, read-only matrix of mu,
    which the certificates of a sequence read.  Any other mu assembles K
    from its sampled values, drops the unit factor from the mesh's cache
    (``fem.release_free_block``) and factors its own K_ff on the mesh's
    band layout (``fem.free_factor``), so that one band is held at a time;
    a later scalar mu or certificate on the mesh factors the unit block
    again.  All of these depend on the mesh and mu only, so one instance
    solves the problem for any load and friction bound, bitwise as a
    fresh ``solve_qvi`` of the same data would.
    """

    def __init__(self, problem: ProblemData):
        self.problem = problem
        mesh, mu = problem.mesh, problem.mu
        mu_e = fem.modulus_values(mesh, mu, problem.mu_star)
        # the constants first: c3 drops the Gram band before the stiffness band is built
        self.c0, self.c3 = constants.space_constants(mesh)
        index = mesh_index(mesh)
        if not (callable(mu) or np.ndim(mu)):  # mu S_ff: the unit block's factor over mu
            _, unit, Z = fem.free_block(mesh)
            factor = (unit, Z) if mu == 1.0 else (lambda b: unit(b) / mu, Z / mu)
            sigma = SIGN_WEIGHT / (mu * index.diagonal)
        else:  # c0 is cached: the unit band goes before K_ff's is made
            fem.release_free_block(mesh)
            self.K = fem.assemble_stiffness(mesh, mu_e)
            try:
                factor = fem.free_factor(mesh, self.K)[1:]
            except fem.FactorizationError as exc:
                raise SolverError(f"stiffness block factorization failed: {exc}") from exc
            sigma = SIGN_WEIGHT / self.K.diagonal()[index.friction]
        self.tresca = TrescaSolver(index, factor, sigma)
        self.mu_star = float(mu_e.min() if problem.mu_star is None else problem.mu_star)
        self.points, self.weights = index.points, index.weights
        self.gram_product = index.gram_product

    @functools.cached_property
    def K(self):
        """The stiffness matrix of mu (``fem.stiffness_matrix``)."""
        problem = self.problem
        return fem.stiffness_matrix(problem.mesh, problem.mu, problem.mu_star)

    def solve(
        self,
        F: np.ndarray,
        g: fem.FrictionBound,
        eta0: np.ndarray | None = None,
    ):
        """(u, SolveReport): ``fixed_point`` on ``tresca.reduce(F)`` and bound ``g``."""
        return fixed_point(self, self.tresca.reduce(F), g, eta0)


def solve_qvi(problem: ProblemData):
    """Fixed-point solve of the quasivariational problem.

    Returns (u, SolveReport); see ``fixed_point`` for failure modes.
    """
    F = fem.assemble_load(problem.mesh, problem.f0, problem.f2)
    return DiscreteProblem(problem).solve(F, problem.g)


# ---------------------------------------------------------------------------
# membership certificate

def _dual_distance(z, T, I, c, diagonal, solve, Z):
    """The least sqrt(z'A_ff^-1 z) over xi_I in |xi_I| <= c_I taken off z at
    T[I], on ``solve`` and Z of a ``fem.free_factor`` of A and ``diagonal``
    = diag(A_ff)_T: ``_box_qp`` on Z_II with TrescaSolver's sigma, its
    minimizer clipped into the box, the distance from that z."""
    if len(I):
        z = z.copy()
        Z_II = Z[np.ix_(I, I)]
        xi, _, _ = _box_qp(
            Z_II, solve(z)[T[I]], c[I], np.zeros(len(I)), None,
            lambda J, rhs: dgetrs(*dgetrf(Z_II[np.ix_(J, J)])[:2], rhs)[0],
            SIGN_WEIGHT / diagonal[I], "membership certificate",
        )
        z[T[I]] -= np.clip(xi, -c[I], c[I])
    return math.sqrt(max(z @ solve(z), 0.0))


def membership_violation(
    mesh: fem.Mesh,
    mu,
    u: np.ndarray,
    theta: TykhonovIndex,
    *,
    seed: int = 0,
    stiffness=None,
    load=None,
) -> float:
    """How far ``u`` lies outside the approximating set of ``theta``.

    The candidate ``u`` belongs to the set when

        a(u, v - u) + j(u, v) - j(u, u) + eps ||u|| ||v - u|| >= F.(v - u)

    holds for every v in V_h.  As v -> j(u, v) is convex and positively
    homogeneous, that holds exactly when the residual r = F - Ku lies
    within eps ||u||_V of the subdifferential of j(u, .) at u, in the dual
    norm of V_h (the subdifferential sum rule; Rockafellar, Convex
    Analysis, Thm. 23.8).  The exact value is max(0, dist - eps ||u||_V), a
    residual per unit ||v - u||_V: no v violates the inequality by more
    than ||v - u||_V times it.

    The subdifferential is xi_i = w_i g_i sign u_i on the gamma3 nodes
    that slip, the box |xi_i| <= w_i g_i on those that stick (u_i == 0),
    I, and zero off gamma3, with g_i = g(x_i, |u_i|).  With z = r_f - xi
    and G = S + M the Gram matrix of the V-norm, dist^2 is the least
    z'G_ff^-1 z over the box (``_dual_distance``).  As |v|_S <= ||v||_V <=
    c0 |v|_S, dist_S, the least sqrt(z'S_ff^-1 z), lies in [dist, c0 dist];
    it is found first, on the mesh's cached factor of S_ff
    (``fem.free_block``).  Where max(0, dist_S - eps ||u||_V) exceeds
    ``CERT_TOL``, the exact value is returned, on a factor of G_ff made for
    the call: a value <= ``CERT_TOL`` bounds the exact one and certifies
    exactly when it does, and a larger value is the exact one.

    The stiffness matrix of ``mu`` comes from ``fem.stiffness_matrix``
    (cached per mesh for a scalar mu) unless the caller passes it as
    ``stiffness``, and the load F of ``theta`` from ``fem.assemble_load``
    unless the caller, which solved for it, passes it as ``load``.  T, the
    weights, the points and the unit diagonal are the mesh's ``MeshIndex``;
    ``seed`` is accepted and not used.  ||u||_V is computed only for
    eps > 0.  Returns a Python float.  A ``u`` or ``load`` that is not of
    shape (n_nodes,) and a non-finite ``u`` raise ValueError before any
    solve.  A residual F - Ku not finite at a free node raises
    SolverError, and so do a bound not finite or negative at u and a QP
    that misses the friction law within ``MAX_ACTIVE_SET`` iterations.
    """
    n = mesh.n_nodes
    u = np.ascontiguousarray(u, dtype=float)
    for name, values in (("u", u), ("load", load)):
        if values is not None and values.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {values.shape}")
    fem.require_finite("u", u)
    if len(mesh.free_nodes) == 0:  # V_h = {0}: no direction to test
        return 0.0
    index = mesh_index(mesh)
    T, g3 = index.pos, index.friction  # gamma3 rows of the free block, in the order of Z
    K = fem.stiffness_matrix(mesh, mu) if stiffness is None else stiffness
    F = fem.assemble_load(mesh, theta.f0, theta.f2) if load is None else load
    z = _finite_free(F - fem.csr_product(K)(u), index.free, "residual F - Ku")
    c = index.weights * _bound(theta.g, index.points, np.abs(u[g3]))
    z[T] -= np.sign(u[g3]) * c  # xi on the slip nodes; zero on the stick nodes
    I = (u[g3] == 0.0).nonzero()[0]
    relaxation = theta.eps * fem.v_norm(mesh, u) if theta.eps else 0.0
    _, solve, Z = fem.free_block(mesh)
    value = max(_dual_distance(z, T, I, c, index.diagonal, solve, Z) - relaxation, 0.0)
    if value > CERT_TOL:  # the bound does not certify: the exact value
        block, solve, Z = fem.free_factor(mesh, fem.gram_matrix(mesh))
        value = max(_dual_distance(z, T, I, c, block.diagonal()[T], solve, Z) - relaxation, 0.0)
    return value


# ---------------------------------------------------------------------------
# solution diagnostics

def complementarity_report(problem: ProblemData, u: np.ndarray, *, load=None):
    """Per-node friction-law residuals of a converged solution.

    Returns (idx, lam, G, stick_slack, comp) with stick_slack = |lam| - G
    (nonpositive up to solver tolerance) and comp = lam*u + G*|u| (zero up
    to solver tolerance).  The load F of ``problem`` comes from
    ``fem.assemble_load`` unless the caller, which solved for it, passes
    it as ``load``.  Raises ValueError for a ``load`` that is not of shape
    (n_nodes,), and SolverError when the residual F - Ku is not finite at
    a gamma3 node, or G is not finite or negative.
    """
    mesh = problem.mesh
    if load is not None and np.shape(load) != (mesh.n_nodes,):
        raise ValueError(f"load must have shape ({mesh.n_nodes},), got {np.shape(load)}")
    K = fem.stiffness_matrix(mesh, problem.mu, problem.mu_star)
    F = fem.assemble_load(mesh, problem.f0, problem.f2) if load is None else load
    idx = mesh.node_sets[fem.GAMMA3]
    u = np.ascontiguousarray(u, dtype=float)
    residual = _finite_free(fem.csr_product(K)(u) - F, idx, "residual F - Ku")
    lam = residual / mesh.gamma3_weights[idx]
    G = _bound(problem.g, mesh.nodes[idx], np.abs(u[idx]))
    stick_slack = np.abs(lam) - G
    comp = lam * u[idx] + G * np.abs(u[idx])
    return idx, lam, G, stick_slack, comp
