"""Boundary traction control of the frictional equilibrium problem.

The control is a piecewise constant traction on the gamma2 patches; the
cost balances an L2 misfit against a target displacement with an L2
penalty on the control:

    cost(u, c) = a0 ||u - target||^2_{L2(D)} + a2 ||c||^2_{L2(gamma2)}.

``minimize_cost`` runs seeded multistart Nelder-Mead over the patch
coefficients, with each evaluation solving the frictional equilibrium
problem for that traction.  The state assembly is load-independent, so
one :class:`StateSolver` holds one ``qvi.DiscreteProblem`` for all
optimizer evaluations.  Multistart optima are clustered by cost (radius
``CLUSTER_RADIUS``) to approximate a possibly non-unique solution set;
ties between equal-cost minimizers (within ``TIE_TOL``) resolve to the
smaller control norm.

``run_oc_sequence`` perturbs the data along a vanishing
``tykhonov.Schedule`` (the perturbed index of the direct harness, plus
the kind ``target_perturb``), re-optimizes each instance and measures
control, state and cost deviations from the unperturbed optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem, qvi
from .tykhonov import (
    NON_CONVERGENT,
    OC_SCHEDULE_KINDS,
    Schedule,
    _index_for,
    check_kind,
    fit_tail_slope,
    judge_decay,
)

# costs within TIE_TOL of the lowest are ties; optima within CLUSTER_RADIUS in
# cost form one cluster
TIE_TOL = 1e-9
CLUSTER_RADIUS = 1e-4


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
    evaluation.
    """

    a0: float
    a2: float
    target: object = 0.0

    def __post_init__(self):
        if not self.a0 > 0.0:  # also refuses NaN
            raise ValueError("misfit weight a0 must be positive")
        if not self.a2 >= 0.0:
            raise ValueError("control penalty a2 must be nonnegative")


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
        if not 1 <= n_patches <= n_facets:
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
        out = np.asarray(coeffs, dtype=float)
        if out.shape != (self.n_patches,):
            raise ValueError(f"expected {self.n_patches} coefficients, got {out.shape}")
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
        if self.lower is None and self.upper is None:
            return None
        lo = self.lower if self.lower is not None else np.full(self.n_patches, -np.inf)
        hi = self.upper if self.upper is not None else np.full(self.n_patches, np.inf)
        return list(zip(lo, hi))


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
    return _cost(fem.mass_matrix(mesh), target, patches, weights, u, coeffs)


def _cost(M, target, patches, weights, u, coeffs) -> float:
    """``cost`` with the mass matrix M and the nodal target given."""
    diff = np.asarray(u, dtype=float) - target
    misfit = float(diff @ (M @ diff))
    return weights.a0 * misfit + weights.a2 * patches.norm_sq(coeffs)


class StateSolver:
    """Repeated state solves under varying controls.

    One ``qvi.DiscreteProblem`` of the base problem (stiffness, Tresca
    solver, base load ``F0``) and one load column per patch (``B``) are
    built once; solving for a coefficient vector is then a cheap
    fixed-point run.  ``evaluate`` reads the mass matrix looked up at
    construction and interpolates (and checks) the target once per
    ``CostWeights`` object, on its first evaluation with that object.
    The base problem must leave ``f2`` unset: the control supplies all
    gamma2 tractions.
    """

    def __init__(self, problem: qvi.ProblemData, patches: ControlPatches):
        if problem.f2 is not None:
            raise ValueError("the control supplies the gamma2 traction; leave f2 unset")
        if patches.mesh is not problem.mesh:
            raise ValueError("patches were built for a different mesh")
        self.discrete = qvi.DiscreteProblem(problem)
        self.patches = patches
        self.F0 = self.discrete.F
        cols = []
        for p in range(patches.n_patches):
            unit = np.zeros(patches.n_patches)
            unit[p] = 1.0
            cols.append(fem.assemble_load(problem.mesh, 0.0, patches.traction(unit)))
        self.B = np.column_stack(cols)
        self._mass = fem.mass_matrix(problem.mesh)
        self._target = (None, None)  # the last weights object and its nodal target

    def solve(self, coeffs, config: qvi.SolverConfig | None = None, eta0=None):
        """State u for the control ``coeffs``; returns (u, SolveReport).

        ``eta0`` seeds the fixed point, e.g. with the state of a nearby
        control; the iteration still runs to its usual tolerance.
        """
        F = self.F0 + self.B @ self.patches.coefficients(coeffs)
        return self.discrete.solve(F, self.discrete.problem.g, config, eta0)

    def evaluate(self, coeffs, weights: CostWeights, config=None, eta0=None):
        """Reduced cost at ``coeffs``; returns (cost, u), the cost bitwise
        that of ``cost``."""
        u, _ = self.solve(coeffs, config, eta0)
        if self._target[0] is not weights:
            self._target = (weights, target_field(self.patches.mesh, weights.target))
        J = _cost(self._mass, self._target[1], self.patches, weights, u, coeffs)
        return J, u


def admissibility_violation(
    problem: qvi.ProblemData,
    patches: ControlPatches,
    pair: AdmissiblePair,
    *,
    eps: float = 0.0,
    seed: int = 0,
) -> float:
    """Membership residual of the pair for its own traction data."""
    theta = qvi.TykhonovIndex(eps, problem.f0, patches.traction(pair.coeffs), problem.g)
    return qvi.membership_violation(problem.mesh, problem.mu, pair.u, theta, seed=seed)


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


def minimize_cost(
    problem: qvi.ProblemData,
    patches: ControlPatches,
    weights: CostWeights,
    config: qvi.SolverConfig | None = None,
    *,
    n_starts: int = 5,
    seed: int = 0,
    start_scale: float = 1.0,
    extra_starts=(),
    xatol: float = 1e-9,
    fatol: float = 1e-12,
    max_evals: int | None = None,
    check_admissibility: bool = True,
) -> ControlResult:
    """Multistart simplex minimization of the reduced cost.

    Starts are the provided ``extra_starts``, the origin, and seeded
    normal draws of scale ``start_scale``.  The selected optimum is the
    smallest-norm coefficient vector among the cost-best starts (within
    the module constant ``TIE_TOL``); ``clusters`` groups all successful
    optima by cost within ``CLUSTER_RADIUS`` to expose non-unique
    minimizers.
    """
    # deferred: only the optimizer needs scipy.optimize, so a solve does not load it
    from scipy.optimize import minimize

    if n_starts < 1:
        raise ValueError("need at least one start")
    solver = StateSolver(problem, patches)
    d = patches.n_patches
    rng = np.random.default_rng(seed)

    x0s = [np.asarray(x, dtype=float) for x in extra_starts]
    x0s.append(np.zeros(d))
    while len(x0s) < len(extra_starts) + n_starts:
        x0s.append(start_scale * rng.standard_normal(d))
    box = patches.bounds()
    if box is not None:
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        x0s = [np.clip(x, lo, hi) for x in x0s]

    budget = max_evals if max_evals is not None else 2000 * d
    starts: list[StartRecord] = []
    traces: list[list[float]] = []
    for i, x0 in enumerate(x0s):
        trace: list[float] = []
        warm = {"eta": None}  # rolling state, private to this start

        def fun(x):
            J, u = solver.evaluate(x, weights, config, eta0=warm["eta"])
            warm["eta"] = u
            trace.append(float(J))
            return J

        res = minimize(
            fun,
            x0,
            method="Nelder-Mead",
            bounds=box,
            options={
                "xatol": xatol,
                "fatol": fatol,
                "maxiter": budget,
                "maxfev": budget,
            },
        )
        starts.append(
            StartRecord(
                index=i,
                x0=x0,
                coeffs=np.asarray(res.x, dtype=float),
                cost=float(res.fun),
                n_evals=int(res.nfev),
                success=bool(res.success),
            )
        )
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

    J_sel, u_sel = solver.evaluate(selected.coeffs, weights, config)
    pair = AdmissiblePair(u=u_sel, coeffs=selected.coeffs)
    violation = None
    if check_admissibility:
        violation = admissibility_violation(problem, patches, pair, seed=seed)
        if violation > 1e-8:
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
class OCReport:
    """Deviation of perturbed optima from the unperturbed optimum."""

    kind: str
    ns: list[int]
    scales: list[float]
    eps: list[float]
    costs: list[float]
    cost_dev: list[float]
    ctrl_dev: list[float]
    ctrl_dev_set: list[float]
    state_dev: list[float]
    violations: list[float]
    slope: float | None
    verdict: str
    base: ControlResult
    noise_floor: float
    ctrl_tol: float

    @property
    def max_violation(self) -> float:
        return max(self.violations) if self.violations else 0.0


def run_oc_sequence(
    problem: qvi.ProblemData,
    patches: ControlPatches,
    weights: CostWeights,
    schedule: Schedule,
    config: qvi.SolverConfig | None = None,
    seed: int = 0,
    *,
    n_starts: int = 5,
    seq_starts: int = 3,
    start_scale: float = 1.0,
    ctrl_tol: float = 1e-3,
    noise_floor: float = 1e-9,
    xatol: float = 1e-9,
    fatol: float = 1e-12,
) -> OCReport:
    """Optimize every perturbed instance and compare with the base optimum.

    Each perturbed run warm-starts from the base optimum (and its
    predecessor) plus ``seq_starts`` fresh starts.  Control deviations
    are measured in L2(gamma2), both against the selected base optimum
    and against the nearest member of the base cluster catalog.  Raises
    ValueError, before the base optimization, for a kind outside
    ``OC_SCHEDULE_KINDS``.
    """
    check_kind(schedule, OC_SCHEDULE_KINDS, "run_oc_sequence")
    mesh = problem.mesh
    target0 = target_field(mesh, weights.target)
    shape = None
    if schedule.kind == "target_perturb":
        shape = target_field(mesh, schedule.target_shape)
    base = minimize_cost(
        problem,
        patches,
        weights,
        config,
        n_starts=n_starts,
        seed=seed,
        start_scale=start_scale,
        xatol=xatol,
        fatol=fatol,
    )
    reps = [rep for _, rep, _ in base.clusters]

    ns = list(range(1, schedule.length + 1))
    eps_list, costs, cost_dev, ctrl_dev, ctrl_dev_set = [], [], [], [], []
    state_dev, violations = [], []
    prev = base.pair.coeffs
    for n, s in zip(ns, schedule.scales()):
        theta = _index_for(problem, schedule, float(s))
        prob_n = problem.with_data(f0=theta.f0, g=theta.g)
        target_n = target0 if shape is None else target0 + float(s) * shape
        weights_n = CostWeights(weights.a0, weights.a2, target_n)
        try:
            res_n = minimize_cost(
                prob_n,
                patches,
                weights_n,
                config,
                n_starts=seq_starts,
                seed=seed + n,
                start_scale=start_scale,
                extra_starts=(base.pair.coeffs, prev),
                xatol=xatol,
                fatol=fatol,
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
        violations.append(
            admissibility_violation(
                prob_n, patches, res_n.pair, eps=theta.eps, seed=seed + n
            )
        )
        prev = res_n.pair.coeffs

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
