"""Boundary traction control of the frictional equilibrium problem.

The control is a piecewise constant traction on the gamma2 patches; the
cost balances an L2 misfit against a target displacement with an L2
penalty on the control:

    cost(u, c) = a0 ||u - target||^2_{L2(D)} + a2 ||c||^2_{L2(gamma2)}.

``minimize_cost`` runs seeded multistart optimization over the patch
coefficients, with each evaluation solving the frictional equilibrium
problem for that traction.  Every bound a config can write is affine, so
on a fixed stick/slip split the control-to-state map is affine and the
cost an exact quadratic: each start first runs Gauss-Newton
(``_gauss_newton``; Nocedal & Wright, Numerical Optimization, 2006, ch.
10) on forward-difference state Jacobians, which reaches a piece's
minimizer in one step.  A start that Gauss-Newton does not finish, e.g.
at an optimum on a stick/slip kink, goes on from its best point with
Nelder-Mead (Nelder & Mead, Comput. J. 7, 1965).  The simplex iteration
is this module's ``_nelder_mead``, bitwise that of scipy 1.17's
``minimize(method="Nelder-Mead")`` for the options used here, so a
control run loads no optimization package.  The state assembly is
load-independent, so one :class:`StateSolver` holds one
``qvi.DiscreteProblem`` for all optimizer evaluations.  A Gauss-Newton
step's state starts from its linear prediction u + D s, and every other
state solve from the secant through its start's last d + 1 evaluated
(control, state) pairs (``_predict``); both are exact wherever the
control-to-state map is affine.  A control that the start has solved
before is answered from its record.  Multistart optima are clustered by
cost (radius ``CLUSTER_RADIUS``) to approximate a possibly non-unique
solution set; ties between equal-cost minimizers (within ``TIE_TOL``)
resolve to the smaller control norm.

``run_oc_sequence`` perturbs the data along a vanishing
``tykhonov.Schedule`` (the perturbed index of the direct harness, plus
the kind ``target_perturb``), re-optimizes each instance and measures
control, state and cost deviations from the unperturbed optimum.
"""

from __future__ import annotations

import functools
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv

from . import fem, qvi
from .tykhonov import (
    NON_CONVERGENT,
    OC_SCHEDULE_KINDS,
    Schedule,
    SequenceReport,
    _index_for,
    check_schedule,
    fit_tail_slope,
    judge_decay,
)

# costs within TIE_TOL of the lowest are ties; optima within CLUSTER_RADIUS in
# cost form one cluster
TIE_TOL = 1e-9
CLUSTER_RADIUS = 1e-4
# the simplex stop tolerances in x and in cost, and its calls per patch
NM_XATOL = 1e-9
NM_FATOL = 1e-12
EVALS_PER_PATCH = 2000
# the relative forward-difference step of a Gauss-Newton Jacobian, and the
# trial steps a start's Gauss-Newton makes before it hands over to the simplex
GN_STEP = 1e-4
GN_MAX_STEPS = 10
# secant weights beyond this l1 norm extrapolate far and amplify the stored
# states' tolerance-level errors; such a solve starts from the last state
SECANT_WEIGHT_CAP = 10.0


class ControlError(RuntimeError):
    """Raised when no optimizer start converges; carries the best
    (cost, coefficients) seen so far in ``best``."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def target_field(mesh: fem.Mesh, data) -> np.ndarray:
    """Nodal interpolation of a target displacement.

    The target must be finite and vanish on the clamped boundary so that
    it lies in the solution space.
    """
    out = fem.node_values(mesh, data)
    fem.require_finite("target", out)
    clamped = out[mesh.node_sets[fem.GAMMA1]]
    if len(clamped) and np.max(np.abs(clamped)) > 1e-12:
        raise ValueError("target must vanish on the clamped boundary")
    return out


@dataclass(frozen=True, eq=False)
class CostWeights:
    """Misfit weight ``a0``, control penalty ``a2`` and the target field.

    ``target`` may be a scalar, a callable on node coordinates or a
    nodal array; it is interpolated (and checked against the clamped
    boundary) when a mesh is available.  Coercivity of the reduced cost
    in the control needs ``a2 > 0``; ``a2 = 0`` is accepted for plain
    evaluation.  Both weights must be finite (ValueError otherwise).
    """

    a0: float
    a2: float
    target: object = 0.0

    def __post_init__(self):
        if not 0.0 < self.a0 < np.inf:  # also refuses NaN
            raise ValueError(f"misfit weight a0 must be positive and finite, got {self.a0}")
        if not 0.0 <= self.a2 < np.inf:
            raise ValueError(f"control penalty a2 must be nonnegative and finite, got {self.a2}")


class ControlPatches:
    """Contiguous piecewise-constant partition of the gamma2 facets.

    Coefficient vectors live in R^d with d = ``n_patches``; the induced
    traction is constant on each patch.  ``lower``/``upper`` give an
    optional box for the optimizer.
    """

    def __init__(self, mesh: fem.Mesh, n_patches: int, lower=None, upper=None):
        n_facets = len(mesh.facets[fem.GAMMA2])
        if n_facets == 0:
            raise ValueError("mesh has no gamma2 facets to control")
        fem.require_count("n_patches", n_patches)
        if n_patches > n_facets:
            raise ValueError(
                f"n_patches must be in [1, {n_facets}], got {n_patches}"
            )
        self.mesh = mesh
        self.n_patches = n_patches
        self.groups = np.array_split(np.arange(n_facets), n_patches)
        per_facet = fem.facet_measures(mesh, fem.GAMMA2)
        self.measures = np.array([per_facet[g].sum() for g in self.groups])
        self.lower, self.upper = (
            None if b is None else np.broadcast_to(np.asarray(b, dtype=float), (n_patches,)).copy()
            for b in (lower, upper)
        )
        for name, b in (("lower", self.lower), ("upper", self.upper)):
            if b is not None and np.isnan(b).any():
                raise ValueError(f"patch bound {name} must not be NaN")
        if self.lower is not None and self.upper is not None:
            if np.any(self.lower >= self.upper):
                raise ValueError("patch box must satisfy lower < upper")

    def coefficients(self, coeffs) -> np.ndarray:
        """``coeffs`` as a float array; ValueError for a wrong shape or a
        non-finite entry."""
        out = np.asarray(coeffs, dtype=float)
        if out.shape != (self.n_patches,):
            raise ValueError(f"expected {self.n_patches} coefficients, got {out.shape}")
        fem.require_finite("control coefficients", out, what="patch")
        return out

    def traction(self, coeffs) -> np.ndarray:
        """Per-facet traction values induced by the patch coefficients."""
        c = self.coefficients(coeffs)
        vals = np.empty(sum(len(g) for g in self.groups))
        for cp, g in zip(c, self.groups):
            vals[g] = cp
        return vals

    def norm_sq(self, coeffs) -> float:
        """Squared L2(gamma2) norm of the piecewise-constant control."""
        c = self.coefficients(coeffs)
        return float(self.measures @ c**2)

    def bounds(self):
        """The box as the (lower, upper) arrays of ``_nelder_mead``, or None."""
        if self.lower is None and self.upper is None:
            return None
        lo = self.lower if self.lower is not None else np.full(self.n_patches, -np.inf)
        hi = self.upper if self.upper is not None else np.full(self.n_patches, np.inf)
        return lo, hi


@dataclass(frozen=True, eq=False)
class AdmissiblePair:
    """A state and the control that produced it."""

    u: np.ndarray
    coeffs: np.ndarray


def cost(
    mesh: fem.Mesh,
    patches: ControlPatches,
    weights: CostWeights,
    u: np.ndarray,
    coeffs,
) -> float:
    """Evaluate the tracking cost for a given state and control."""
    target = target_field(mesh, weights.target)
    c = patches.coefficients(coeffs)
    return _cost(fem.csr_product(fem.mass_matrix(mesh)), target, patches, weights, u, c)


def _cost(mass, target, patches, weights, u, c) -> float:
    """``cost`` with the product x -> M x of the mass matrix, the nodal
    target and the checked coefficients c given (``patches.norm_sq``
    without its check)."""
    diff = np.asarray(u, dtype=float) - target
    misfit = float(diff @ mass(diff))
    return weights.a0 * misfit + weights.a2 * float(patches.measures @ c**2)


class StateSolver:
    """Repeated state solves under varying controls.

    One ``qvi.DiscreteProblem`` of the base problem (stiffness, Tresca
    solver), the base load ``F0`` and one load column per patch (``B``) are
    built once, and the base load and the columns reduced once, R =
    K_ff^-1 [F0_f | B_f] in one ``TrescaSolver.reduce``; solving for a
    coefficient vector c is then a fixed-point run on the reduced load
    R_0 + R_B c, with no band solve for the load.  ``evaluate`` reads the
    mass matrix looked up at construction and interpolates (and checks) the target
    once per ``CostWeights`` object, on its first evaluation with that
    object.  The base problem must leave ``f2`` unset: the control
    supplies all gamma2 tractions.
    """

    def __init__(self, problem: qvi.ProblemData, patches: ControlPatches):
        if problem.f2 is not None:
            raise ValueError("the control supplies the gamma2 traction; leave f2 unset")
        if patches.mesh is not problem.mesh:
            raise ValueError("patches were built for a different mesh")
        self.discrete = qvi.DiscreteProblem(problem)
        self.patches = patches
        self.F0 = fem.assemble_load(problem.mesh, problem.f0)  # f2 is unset
        cols = []
        for p in range(patches.n_patches):
            unit = np.zeros(patches.n_patches)
            unit[p] = 1.0
            cols.append(fem.assemble_load(problem.mesh, 0.0, patches.traction(unit)))
        self.B = np.column_stack(cols)
        R = np.asfortranarray(self.discrete.tresca.reduce(np.column_stack([self.F0, self.B])))
        self._R0, self._RB = R[:, 0], R[:, 1:]
        self._mass = fem.csr_product(fem.mass_matrix(problem.mesh))
        self._target = (None, None)  # the last weights object and its nodal target

    def _fixed_point(self, c, eta0):
        """(u, SolveReport) of ``qvi.fixed_point`` on the reduced load of
        the checked coefficients c."""
        w = self._R0 + self._RB @ c
        return qvi.fixed_point(self.discrete, w, self.discrete.problem.g, eta0)

    def solve(self, coeffs, eta0=None):
        """State u for the control ``coeffs``; returns (u, SolveReport).

        ``eta0`` seeds the fixed point, e.g. with the secant prediction of
        ``_predict``; the iteration still runs to ``qvi.OUTER_TOL``.
        """
        return self._fixed_point(self.patches.coefficients(coeffs), eta0)

    def evaluate(self, coeffs, weights: CostWeights, eta0=None):
        """Reduced cost at ``coeffs``; returns (cost, u), the cost bitwise
        that of ``cost``.  ``coeffs`` is checked once, for the load and the
        cost."""
        c = self.patches.coefficients(coeffs)
        u, _ = self._fixed_point(c, eta0)
        return _cost(self._mass, self._target_of(weights), self.patches, weights, u, c), u

    def _target_of(self, weights):
        """The nodal target of ``weights``, interpolated on a change of the
        weights object."""
        if self._target[0] is not weights:
            self._target = (weights, target_field(self.patches.mesh, weights.target))
        return self._target[1]

    def gauss_newton_model(self, c, u, D, weights):
        """The Gauss-Newton model of the cost at the control c with state u
        and state Jacobian D (one column per patch), as the pair (A, b) of
        its halved normal equations A s = b: A = a0 D'MD + a2
        diag(measures) and b = -(a0 D'M(u - target) + a2 measures * c),
        half the model's Hessian and minus half its gradient."""
        MD = np.column_stack([self._mass(col) for col in D.T])
        m = self.patches.measures
        A = weights.a0 * (D.T @ MD) + weights.a2 * np.diag(m)
        b = -(weights.a0 * (MD.T @ (u - self._target_of(weights))) + weights.a2 * m * c)
        return A, b


def admissibility_violation(
    problem: qvi.ProblemData,
    patches: ControlPatches,
    pair: AdmissiblePair,
    *,
    eps: float = 0.0,
) -> float:
    """Membership residual of the pair for its own traction data
    (``qvi.membership_violation``)."""
    theta = qvi.TykhonovIndex(eps, problem.f0, patches.traction(pair.coeffs), problem.g)
    return qvi.membership_violation(problem.mesh, problem.mu, pair.u, theta)


@dataclass(frozen=True, eq=False)
class StartRecord:
    """Outcome of a single optimizer start."""

    index: int
    x0: np.ndarray
    coeffs: np.ndarray
    cost: float
    n_evals: int
    success: bool


@dataclass(eq=False)
class ControlResult:
    """Selected optimum plus the full multistart picture."""

    pair: AdmissiblePair
    cost: float
    best_cost: float
    spread: float
    violation: float | None
    starts: list[StartRecord]
    clusters: list[tuple[float, np.ndarray, int]]
    traces: list[list[float]] = field(repr=False)


def _predict(history: deque, x: np.ndarray) -> np.ndarray | None:
    """Start for the state solve at control ``x``: with d + 1 = ``maxlen``
    (control, state) pairs (x_j, u_j) in ``history``, the secant
    sum_j beta_j u_j with [X; 1'] beta = [x; 1].  The last state when there
    are fewer pairs, the system is singular or ||beta||_1 exceeds
    ``SECANT_WEIGHT_CAP``; None when there is none."""
    n = len(history)
    if n == history.maxlen:
        A, U = np.empty((n, n)), np.empty((n, len(history[-1][1])))
        for j, (x_j, u_j) in enumerate(history):
            A[:-1, j], U[j] = x_j, u_j
        A[-1] = 1.0
        _, _, beta, info = dgesv(A, np.concatenate((x, (1.0,))))
        if info == 0 and np.abs(beta).sum() <= SECANT_WEIGHT_CAP:  # info > 0: singular
            return beta @ U
    return history[-1][1] if history else None


class _BudgetSpent(Exception):
    """A call of an optimizer's objective past its budget."""


def _gauss_newton(fun, model, x0, box, budget):
    """Gauss-Newton minimization of a cost of the form a0 ||u(x) -
    target||^2_M + a2 x'diag(measures)x from ``x0``: (the best point
    seen, its cost, the number of calls, whether the stop test held).

    ``fun(x, eta0)`` returns the (cost, state) at x, its state solve
    started from ``eta0`` (None: the caller's own start), and ``model(x,
    u, D)`` the normal equations (A, b) of the model with state u and
    state Jacobian D.  An iteration forms D by forward differences, one
    call at x + h e_k for each patch k with h = ``GN_STEP`` max(1, |x_k|),
    stepped inward at an upper bound.  Its step s solves A s = b on the
    free coefficients, those not held at a bound of ``box`` (None or
    (lower, upper)) by a gradient pointing out of it, with s = 0 on the
    held ones (projected Newton; Bertsekas, SIAM J. Control Optim. 20,
    1982).  It stops with success when x + s, clipped into the box, moves x
    by at most ``NM_XATOL``.  Otherwise it tries x + t p, with p the
    clipped step, from t = 1, halving t until the cost rises by at most
    ``NM_FATOL``; the trial's state starts from u + D t p, the exact state
    wherever the map is affine.  It gives up, without the stop test, on a
    singular system or a non-finite step, on a trial step within
    ``NM_XATOL`` that is still refused, after ``GN_MAX_STEPS`` trials, or
    at the ``budget``th call; with ``GN_MAX_STEPS`` = 0 it makes no call.
    """
    clip = (lambda x: x) if box is None else (lambda x: np.clip(x, *box))
    x = np.array(x0, dtype=float)
    calls, best = 0, (x, np.inf)

    def f(y, eta0=None):
        nonlocal calls, best
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        J, u = fun(y, eta0)
        if J < best[1]:
            best = (y, J)
        return J, u

    if not GN_MAX_STEPS:
        return x, np.inf, 0, False
    trials = 0
    try:
        J, u = f(x)
        while True:
            D = np.empty((len(u), len(x)))
            for k in range(len(x)):
                h = GN_STEP * max(1.0, abs(x[k]))
                if box is not None and x[k] + h > box[1][k]:
                    h = -h
                y = x.copy()
                y[k] += h
                D[:, k] = (f(y)[1] - u) / (y[k] - x[k])
            A, b = model(x, u, D)
            # held: at a bound that the descent direction b points out of
            free = np.ones(len(x), dtype=bool) if box is None else ~(
                (x <= box[0]) & (b < 0.0) | (x >= box[1]) & (b > 0.0)
            )
            s, info = np.zeros(len(x)), 0
            if free.any():
                _, _, s[free], info = dgesv(A[np.ix_(free, free)], b[free])
            if info or not np.isfinite(s).all():  # info > 0: singular
                break
            p = clip(x + s) - x
            if np.max(np.abs(p)) <= NM_XATOL:
                return x, J, calls, True
            t = 1.0
            while trials < GN_MAX_STEPS and t * np.max(np.abs(p)) > NM_XATOL:
                trials += 1
                y = clip(x + t * p)
                J_y, u_y = f(y, u + D @ (y - x))
                if J_y <= J + NM_FATOL:
                    break
                t *= 0.5
            else:
                break
            x, J, u = y, J_y, u_y
    except _BudgetSpent:
        pass
    return best[0], best[1], calls, False


def _nelder_mead(fun, x0, box, budget):
    """Nelder-Mead minimization of ``fun`` from ``x0``: (x, fun(x), the
    number of calls, whether the stop test held within ``budget`` calls).

    Bitwise the iteration of scipy 1.17's ``minimize(fun, x0,
    method="Nelder-Mead", bounds=box, options={"xatol": NM_XATOL, "fatol":
    NM_FATOL, "maxiter": budget, "maxfev": budget})``, with ``box`` None or a
    pair (lower, upper) of arrays: reflection, expansion, contraction and
    shrink coefficients 1, 2, 0.5 and 0.5; a start simplex that scales
    the k-th entry of x0 by 1.05, or sets it to 0.00025 when it is zero;
    in a box, every point clipped into it and a start vertex past the
    upper bound reflected back; ``fun`` called on a copy of each point;
    the stop at a simplex within ``NM_XATOL`` of its best vertex in x and
    ``NM_FATOL`` in cost, or at the budget.  An iteration makes at least one
    call, so the iteration cap never binds before the call cap and is not
    kept.
    """
    clip = (lambda x: x) if box is None else (lambda x: np.clip(x, *box))
    n = len(x0)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return fun(np.copy(x))

    x0 = clip(np.array(x0, dtype=float))
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    if box is not None:  # a vertex past the upper bound is reflected into the box
        sim = np.clip(np.where(sim > box[1], 2 * box[1] - sim, sim), *box)
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # sorted twice, as scipy does: an unstable sort may reorder ties
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    while calls < budget:
        try:
            if (
                np.max(np.abs(sim[1:] - sim[0])) <= NM_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= NM_FATOL
            ):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = clip(2 * xbar - sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip(3 * xbar - 2 * sim[-1])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = clip(1.5 * xbar - 0.5 * sim[-1])
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = clip(0.5 * xbar + 0.5 * sim[-1])
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = clip(sim[0] + 0.5 * (sim[j] - sim[0]))
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], np.min(fsim), calls, calls < budget


def minimize_cost(
    problem: qvi.ProblemData,
    patches: ControlPatches,
    weights: CostWeights,
    *,
    n_starts: int = 5,
    seed: int = 0,
    extra_starts=(),
    check_admissibility: bool = True,
) -> ControlResult:
    """Multistart minimization of the reduced cost.

    Starts are the provided ``extra_starts``, the origin, and seeded
    standard normal draws.  Each runs ``_gauss_newton`` and, unless that
    ends with its stop test, ``_nelder_mead`` from Gauss-Newton's best
    point on the rest of the start's ``EVALS_PER_PATCH`` evaluations per
    patch, at ``NM_XATOL`` and ``NM_FATOL``; a start's ``n_evals`` and
    trace count the calls of both.  The selected optimum is the
    smallest-norm coefficient vector among the cost-best starts (within
    ``TIE_TOL``); ``clusters`` groups all successful optima by cost
    within ``CLUSTER_RADIUS`` to expose non-unique minimizers.  Each
    start solves the state once per distinct control: it records the
    cost and state of every control it solves, keyed by the control's
    bytes, and answers the optimizers' revisits from that record; its
    trace still has one cost per optimizer call.  A Gauss-Newton trial
    step's state solve starts from its linear prediction, and every other
    one from ``_predict`` on the (control, state) pairs its start has
    solved; the selected optimum's state is solved again from a cold
    start.
    Raises ValueError, before any state solve, for an ``n_starts`` that
    is not an integer of at least 1, or an extra start of the wrong shape
    or with a non-finite entry.
    """
    fem.require_count("n_starts", n_starts)
    d = patches.n_patches
    x0s = [patches.coefficients(x) for x in extra_starts]
    solver = StateSolver(problem, patches)
    rng = np.random.default_rng(seed)
    x0s.append(np.zeros(d))
    while len(x0s) < len(extra_starts) + n_starts:
        x0s.append(rng.standard_normal(d))
    box = patches.bounds()
    if box is not None:
        x0s = [np.clip(x, *box) for x in x0s]

    budget = EVALS_PER_PATCH * d
    model = functools.partial(solver.gauss_newton_model, weights=weights)
    starts: list[StartRecord] = []
    traces: list[list[float]] = []
    for i, x0 in enumerate(x0s):
        trace: list[float] = []
        history: deque = deque(maxlen=d + 1)  # solved (x, u) pairs, private to this start
        solved: dict = {}  # the (cost, state) of each control this start solved, by its bytes

        def fun(x, eta0=None):
            key = x.tobytes()
            hit = solved.get(key)
            if hit is None:  # a revisit is answered from the record
                if eta0 is None:
                    eta0 = _predict(history, x)
                hit = solver.evaluate(x, weights, eta0=eta0)
                history.append((x, hit[1]))
                solved[key] = hit
            trace.append(float(hit[0]))
            return hit

        x, J, n_evals, success = _gauss_newton(fun, model, x0, box, budget)
        if not success and n_evals < budget:
            x, J, n_nm, success = _nelder_mead(lambda x: fun(x)[0], x, box, budget - n_evals)
            n_evals += n_nm
        starts.append(StartRecord(i, x0, x, float(J), n_evals, success))
        traces.append(trace)

    ok = [s for s in starts if s.success]
    if not ok:
        best = min(starts, key=lambda s: s.cost)
        raise ControlError(
            f"no optimizer start converged within {budget} evaluations "
            f"(best cost so far {best.cost:.6e})",
            best=(best.cost, best.coeffs),
        )

    def representative(group):
        """Smallest-norm start within TIE_TOL of the group's lowest cost."""
        return min(
            (m for m in group if m.cost <= group[0].cost + TIE_TOL),
            key=lambda m: (patches.norm_sq(m.coeffs), m.index),
        )

    by_cost = sorted(ok, key=lambda s: s.cost)
    best_cost = by_cost[0].cost
    selected = representative(by_cost)
    groups = [[by_cost[0]]]
    for s in by_cost[1:]:
        if s.cost - groups[-1][0].cost > CLUSTER_RADIUS:
            groups.append([])
        groups[-1].append(s)
    clusters = []
    for group in groups:
        rep = representative(group)
        clusters.append((rep.cost, rep.coeffs, len(group)))

    J_sel, u_sel = solver.evaluate(selected.coeffs, weights)
    pair = AdmissiblePair(u=u_sel, coeffs=selected.coeffs)
    violation = None
    if check_admissibility:
        violation = admissibility_violation(problem, patches, pair)
        if violation > qvi.CERT_TOL:
            warnings.warn(
                f"returned pair misses the admissibility certificate "
                f"(violation {violation:.3e})"
            )
    return ControlResult(
        pair=pair,
        cost=float(J_sel),
        best_cost=best_cost,
        spread=max(s.cost for s in ok) - best_cost,
        violation=violation,
        starts=starts,
        clusters=clusters,
        traces=traces,
    )


@dataclass(eq=False)
class OCReport(SequenceReport):
    """Deviation of perturbed optima from the unperturbed optimum."""

    costs: list[float]
    cost_dev: list[float]
    ctrl_dev: list[float]
    ctrl_dev_set: list[float]
    state_dev: list[float]
    base: ControlResult
    ctrl_tol: float


def run_oc_sequence(
    problem: qvi.ProblemData,
    patches: ControlPatches,
    weights: CostWeights,
    schedule: Schedule,
    seed: int = 0,
    *,
    seq_starts: int = 3,
    ctrl_tol: float = 1e-3,
    noise_floor: float = 1e-9,
    **optimizer,
) -> OCReport:
    """Optimize every perturbed instance and compare with the base optimum.

    The ``optimizer`` keyword ``n_starts`` goes to ``minimize_cost``; each
    perturbed run warm-starts from the base optimum (and its predecessor)
    plus ``seq_starts`` fresh starts in place of ``n_starts``.  Control
    deviations are measured in L2(gamma2), both against the selected
    base optimum and against the nearest member of the base cluster
    catalog.  The instances are certified after the last optimization,
    all on the mesh's one factor of S_ff (``qvi.membership_violation``).
    Raises ValueError, before the base optimization, for a kind outside
    ``OC_SCHEDULE_KINDS``, a ``seq_starts`` that is not an integer of at
    least 1, or a ``ctrl_tol`` or ``noise_floor`` that is negative or not
    finite, and TypeError for an ``extra_starts`` or
    ``check_admissibility``, which each instance sets itself;
    ``minimize_cost`` refuses any other bad optimizer keyword at the base
    call.
    """
    check_schedule(problem, schedule, OC_SCHEDULE_KINDS, "run_oc_sequence")
    fem.require_count("seq_starts", seq_starts)
    for name, value in (("ctrl_tol", ctrl_tol), ("noise_floor", noise_floor)):
        if not 0.0 <= value < np.inf:  # also refuses NaN
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")
    for name in ("extra_starts", "check_admissibility"):
        if name in optimizer:
            raise TypeError(f"run_oc_sequence takes no {name}: each instance sets its own")
    mesh = problem.mesh
    target0 = target_field(mesh, weights.target)
    shape = None
    if schedule.kind == "target_perturb":
        shape = target_field(mesh, schedule.target_shape)
    optimize = functools.partial(minimize_cost, patches=patches, **optimizer)
    base = optimize(problem, weights=weights, seed=seed)
    reps = [rep for _, rep, _ in base.clusters]

    ns = list(range(1, schedule.length + 1))
    eps_list, costs, cost_dev, ctrl_dev, ctrl_dev_set = [], [], [], [], []
    state_dev, certified = [], []
    prev = base.pair.coeffs
    for n, s in zip(ns, schedule.scales()):
        theta, _ = _index_for(problem, schedule, n, float(s))
        prob_n = problem.with_data(f0=theta.f0, g=theta.g)
        target_n = target0 if shape is None else target0 + float(s) * shape
        weights_n = CostWeights(weights.a0, weights.a2, target_n)
        try:
            res_n = optimize(
                prob_n,
                weights=weights_n,
                n_starts=seq_starts,
                seed=seed + n,
                extra_starts=(base.pair.coeffs, prev),
                check_admissibility=False,
            )
        except (ControlError, qvi.SolverError) as exc:
            raise type(exc)(f"perturbed instance n={n} failed: {exc}") from exc
        eps_list.append(theta.eps)
        costs.append(res_n.cost)
        cost_dev.append(abs(res_n.cost - base.cost))
        dc = np.sqrt(patches.norm_sq(res_n.pair.coeffs - base.pair.coeffs))
        ctrl_dev.append(float(dc))
        ctrl_dev_set.append(
            float(
                min(
                    np.sqrt(patches.norm_sq(res_n.pair.coeffs - r)) for r in reps
                )
            )
        )
        state_dev.append(float(fem.v_norm(mesh, res_n.pair.u - base.pair.u)))
        certified.append((prob_n, res_n.pair))
        prev = res_n.pair.coeffs

    violations = [
        admissibility_violation(prob_n, patches, pair, eps=eps)
        for (prob_n, pair), eps in zip(certified, eps_list)
    ]

    verdict = judge_decay(ns, cost_dev, noise_floor)
    if ctrl_dev_set[-1] > ctrl_tol:
        verdict = NON_CONVERGENT
    return OCReport(
        kind=schedule.kind,
        ns=ns,
        scales=[float(s) for s in schedule.scales()],
        eps=eps_list,
        costs=costs,
        cost_dev=cost_dev,
        ctrl_dev=ctrl_dev,
        ctrl_dev_set=ctrl_dev_set,
        state_dev=state_dev,
        violations=violations,
        slope=fit_tail_slope(ns, cost_dev),
        verdict=verdict,
        base=base,
        noise_floor=noise_floor,
        ctrl_tol=ctrl_tol,
    )
