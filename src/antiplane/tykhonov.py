"""Perturbation schedules and empirical convergence measurement.

A schedule produces a sequence of data perturbations with vanishing
amplitude (regularization weight, source, traction, friction bound or
shear modulus), solves each perturbed problem, and certifies that every
iterate belongs to the approximating set of its index.  The measured
errors against the unperturbed solution quantify how stably the problem
responds: conforming schedules decay (typically like the perturbation
scale), while a sequence driven toward different limit data plateaus at
a positive gap.

``run_convergence`` solves the instances of every kind in one loop, from
their index theta_n and modulus mu_n (``_index_for``); what the index
keeps as the base's own object decides what an instance shares with
the unperturbed problem: its load, its ``qvi.DiscreteProblem`` or its
solution.  The same ``Schedule``, index and ``SequenceReport`` serve
``control.run_oc_sequence``, which alone takes the kind
``target_perturb``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, qvi

# kinds of run_convergence; _index_for alone knows which datum each perturbs
SCHEDULE_KINDS = (
    "eps_decay",
    "load_perturb",
    "traction_perturb",
    "friction_perturb",
    "lame_perturb",
    "adversarial_load",
)
# kinds of control.run_oc_sequence
OC_SCHEDULE_KINDS = ("eps_decay", "load_perturb", "friction_perturb", "target_perturb")
DECAY_LAWS = ("inverse_n", "inverse_n_sq", "geometric", "zero")
MU_LAWS = ("relative", "oscillation")

CONVERGENT = "CONVERGENT"
NON_CONVERGENT = "NON-CONVERGENT"


@dataclass(frozen=True)
class Schedule:
    """One family of vanishing perturbations.

    ``amplitude`` scales the decay law s_n (1/n, 1/n^2, ratio^n or 0).
    The perturbed quantity depends on ``kind``:

    * ``eps_decay``: relaxation weight eps_n = s_n, data untouched;
    * ``load_perturb``: f0_n = f0 + s_n * f0_shape;
    * ``traction_perturb``: f2_n = f2 + s_n * f2_shape;
    * ``friction_perturb``: g_n = g + s_n*(da + db |r|);
    * ``lame_perturb``: mu_n by ``mu_law``, eps_n = max |mu_n - mu|;
    * ``adversarial_load``: f0_n = f0_target + s_n * f0_shape;
    * ``target_perturb``: control target + s_n * target_shape.

    ``SCHEDULE_KINDS`` lists the kinds of ``run_convergence`` and
    ``OC_SCHEDULE_KINDS`` those of ``control.run_oc_sequence``.
    """

    kind: str
    length: int
    amplitude: float = 1.0
    decay: str = "inverse_n"
    ratio: float = 0.5
    f0_shape: object = 1.0
    f2_shape: object = 1.0
    friction_da: float = 1.0
    friction_db: float = 0.0
    f0_target: object = None
    mu_law: str = "relative"
    target_shape: object = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS + OC_SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.decay not in DECAY_LAWS:
            raise ValueError(f"unknown decay law {self.decay!r}")
        if self.mu_law not in MU_LAWS:
            raise ValueError(f"unknown mu law {self.mu_law!r}")
        if not isinstance(self.length, (int, np.integer)):
            raise ValueError(f"length must be an integer, got {self.length}")
        if self.length < 4:
            raise ValueError("schedule needs at least four entries")
        if not (0.0 < self.ratio < 1.0) and self.decay == "geometric":
            raise ValueError("geometric decay needs 0 < ratio < 1")
        if self.kind == "adversarial_load" and self.f0_target is None:
            raise ValueError("adversarial_load needs f0_target")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        for name in ("friction_da", "friction_db"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # also refuses NaN
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")

    def scales(self) -> np.ndarray:
        """Scale sequence s_n, n = 1..length, of the decay law."""
        n = np.arange(1, self.length + 1, dtype=float)
        if self.decay == "inverse_n":
            s = 1.0 / n
        elif self.decay == "inverse_n_sq":
            s = 1.0 / n**2
        elif self.decay == "geometric":
            s = self.ratio**n
        else:  # "zero"
            s = np.zeros_like(n)
        return self.amplitude * s


def combine_coefficients(base, scale: float, shape):
    """base + scale * shape for coefficients that are scalars, arrays of
    one value per element (or facet) or callables of the sample points.
    Two scalars give a Python float, a pair with a callable gives a
    callable, and any other pair an array."""
    if scale == 0.0:
        return base
    if callable(base) or callable(shape):
        def values(c, x):  # an array holds one value per sample point
            if callable(c):
                return np.asarray(c(x), dtype=float)
            return np.broadcast_to(np.asarray(c, dtype=float), (len(x),))

        return lambda x: values(base, x) + scale * values(shape, x)
    if np.ndim(base) == 0 and np.ndim(shape) == 0:
        return float(base) + scale * float(shape)
    return np.asarray(base, dtype=float) + scale * np.asarray(shape, dtype=float)


def check_schedule(problem: qvi.ProblemData, schedule: Schedule, kinds, harness: str) -> None:
    """ValueError unless ``harness`` takes the schedule's kind and the
    problem has the data that the kind perturbs."""
    if schedule.kind not in kinds:
        raise ValueError(f"{harness} does not take schedule kind {schedule.kind!r}")
    if schedule.kind == "traction_perturb" and problem.f2 is None:
        raise ValueError("traction_perturb perturbs f2, but the problem sets no f2")
    if schedule.kind == "traction_perturb" and len(problem.mesh.facets[fem.GAMMA2]) == 0:
        raise ValueError("traction_perturb perturbs f2, but the mesh has no gamma2 facets")


def _index_for(problem: qvi.ProblemData, schedule: Schedule, n: int, s: float):
    """(theta_n, mu_n) of instance n with scale s.  ``lame_perturb`` moves
    only mu_n, with eps_n = max |mu_n - mu| sampled at element midpoints;
    ``target_perturb`` moves only the control target.

    Each datum (f0, f2, g, mu) that the kind does not perturb is the base
    problem's own object, and so is an f0, f2 or mu shifted by a zero
    scale (``combine_coefficients``) and a g shifted by zero
    (``fem.FrictionBound.shifted``): identity tells a caller what an
    instance shares with the unperturbed problem."""
    kind = schedule.kind
    f0, f2, g, mu = problem.f0, problem.f2, problem.g, problem.mu
    eps = s if kind == "eps_decay" else 0.0
    if kind == "load_perturb":
        f0 = combine_coefficients(f0, s, schedule.f0_shape)
    elif kind == "traction_perturb":
        f2 = combine_coefficients(f2, s, schedule.f2_shape)
    elif kind == "friction_perturb":
        g = g.shifted(s * schedule.friction_da, s * schedule.friction_db)
    elif kind == "adversarial_load":
        f0 = combine_coefficients(schedule.f0_target, s, schedule.f0_shape)
    elif kind == "lame_perturb":
        if schedule.mu_law == "relative":
            mu = combine_coefficients(problem.mu, s, problem.mu)
        else:  # fixed-amplitude oscillation, scale law ignored
            mu = combine_coefficients(problem.mu, schedule.amplitude * (-1.0) ** n, 1.0)
        mu_n_e = fem.element_values(problem.mesh, mu)
        eps = float(np.max(np.abs(mu_n_e - fem.element_values(problem.mesh, problem.mu))))
    return qvi.TykhonovIndex(eps, f0, f2, g), mu


@dataclass(eq=False)
class SequenceReport:
    """What ``run_convergence`` and ``control.run_oc_sequence`` both report."""

    kind: str
    ns: list[int]
    scales: list[float]
    eps: list[float]
    violations: list[float]
    slope: float | None
    verdict: str
    noise_floor: float

    @property
    def max_violation(self) -> float:
        return max(self.violations) if self.violations else 0.0


@dataclass
class ConvergenceReport(SequenceReport):
    errors: list[float]
    limit_gap: float | None = None
    errors_to_limit: list[float] | None = None


def fit_tail_slope(ns, errors) -> float | None:
    """Least-squares slope of log e against log n over the tail half."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    tail = ns >= ns[-1] / 2.0
    keep = tail & (errors > 0.0)
    if keep.sum() < 3:
        return None
    coef = np.polyfit(np.log(ns[keep]), np.log(errors[keep]), 1)
    return float(coef[0])


def judge_decay(ns, errors, noise_floor) -> str:
    """CONVERGENT when the tail half either sits below the noise floor
    or decreases (within 10% jitter) and ends well under its start."""
    errors = np.asarray(errors, dtype=float)
    ns = np.asarray(ns, dtype=float)
    tail = errors[ns >= ns[-1] / 2.0]
    if np.all(tail <= noise_floor):
        return CONVERGENT
    jitter_ok = np.all(tail[1:] <= 1.1 * tail[:-1])
    decaying = tail[-1] <= 0.8 * tail[0]
    return CONVERGENT if (jitter_ok and decaying) else NON_CONVERGENT


def run_convergence(
    problem: qvi.ProblemData,
    schedule: Schedule,
    config: qvi.SolverConfig | None = None,
    seed: int = 0,
    *,
    noise_floor: float | None = None,
) -> ConvergenceReport:
    """Solve the unperturbed problem and each instance, measure errors,
    certify membership, fit the tail slope and judge decay.

    An instance takes the base load where its index keeps f0 and f2, the
    base ``qvi.DiscreteProblem`` where it keeps mu, and the unperturbed
    solution where it keeps the load, g and mu.  The certificates test
    against the base modulus, on the base stiffness matrix and the mesh's
    cached factor of the free unit stiffness block, each with the load its
    instance was solved for; they follow the last solve, as an instance
    with its own mu releases that factor.  ``seed`` is accepted and not
    used: the certificate draws no random numbers.

    Raises ValueError as ``check_schedule`` or for a negative or NaN
    ``noise_floor`` before any solve, and ValueError or SolverError
    naming the instance when one has unusable data, breaks the smallness
    condition or fails to converge."""
    check_schedule(problem, schedule, SCHEDULE_KINDS, "run_convergence")
    if noise_floor is not None and not noise_floor >= 0.0:  # also refuses NaN
        raise ValueError(f"noise_floor must be nonnegative, got {noise_floor}")
    cfg = config or qvi.SolverConfig()
    floor = noise_floor if noise_floor is not None else max(1e-6, 10.0 * cfg.outer_tol)

    mesh = problem.mesh
    shared = qvi.DiscreteProblem(problem)
    F_base = fem.assemble_load(mesh, problem.f0, problem.f2)
    u_ref, _ = shared.solve(F_base, problem.g, config)
    u_bar = None
    if schedule.kind == "adversarial_load":
        F_bar = fem.assemble_load(mesh, schedule.f0_target, problem.f2)
        u_bar, _ = shared.solve(F_bar, problem.g, config)

    seq = []  # (theta_n, u_n, F_n) of every instance, F_n the load it was solved for
    for n, s in enumerate(schedule.scales(), start=1):
        theta, mu_n = _index_for(problem, schedule, n, float(s))
        base_load = theta.f0 is problem.f0 and theta.f2 is problem.f2
        F = F_base if base_load else fem.assemble_load(mesh, theta.f0, theta.f2)
        try:
            if mu_n is not problem.mu:
                discrete = qvi.DiscreteProblem(problem.with_data(mu=mu_n, mu_star=None))
                u_n, _ = discrete.solve(F, theta.g, config)
            elif base_load and theta.g is problem.g:
                u_n = u_ref
            else:
                u_n, _ = shared.solve(F, theta.g, config)
        except (ValueError, qvi.SolverError) as exc:
            raise type(exc)(f"perturbed instance n={n} failed: {exc}") from exc
        seq.append((theta, u_n, F))

    ns = list(range(1, schedule.length + 1))
    errors = [float(fem.v_norm(mesh, u_n - u_ref)) for _, u_n, _ in seq]

    limit_gap = None
    errors_to_limit = None
    if u_bar is not None:
        limit_gap = float(fem.v_norm(mesh, u_bar - u_ref))
        errors_to_limit = [float(fem.v_norm(mesh, u_n - u_bar)) for _, u_n, _ in seq]

    violations = [
        qvi.membership_violation(mesh, problem.mu, u_n, theta, stiffness=shared.K, load=F_n)
        for theta, u_n, F_n in seq
    ]

    return ConvergenceReport(
        kind=schedule.kind,
        ns=ns,
        scales=[float(s) for s in schedule.scales()],
        eps=[theta.eps for theta, _, _ in seq],
        errors=errors,
        violations=violations,
        slope=fit_tail_slope(ns, errors),
        verdict=judge_decay(ns, errors, floor),
        noise_floor=floor,
        limit_gap=limit_gap,
        errors_to_limit=errors_to_limit,
    )

