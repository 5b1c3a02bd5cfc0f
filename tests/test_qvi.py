"""Frozen-bound solves, the fixed point, membership and diagnostics.

Hand-derived references on the unit interval (left end clamped, friction
point x = 1, weight one, constant source f0, modulus mu):

* frozen bound G: slip occurs when |f0| > 2 mu G... the positive-slip
  solution is u = -(f0/2mu) x^2 + ((f0 - G)/mu) x with traction -G;
* slip-dependent bound g(r) = a + b|r| with f0 = 3, mu = 1 fixes the end
  value t from t = f0/2 - (a + b t), e.g. a = b = 0.5 gives t = 2/3 and
  bound 5/6 at the fixed point.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from antiplane import constants, control, fem, qvi
from antiplane.oracle import analytic_1d, benchmark_problem, linear_solve
from space_helpers import dual_norm, in_space, zero_on_gamma1

RNG_SEED = 424242


def interval_mesh(n):
    spec = fem.MeshSpec(1, (1.0,), (n,), {"left": "gamma1", "right": "gamma3"})
    return fem.build_mesh(spec)


def square_mesh(n):
    spec = fem.MeshSpec(
        2, (1.0, 1.0), (n, n),
        {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"},
    )
    return fem.build_mesh(spec)


def friction_energy(mesh, K, F, g, u):
    """Full nonsmooth energy with the bound frozen at the slip of u itself."""
    return 0.5 * u @ (K @ u) - F @ u + fem.eval_j(mesh, g, u, u)


def cd_oracle(K, F, free, gamma3, c, tol=1e-14, max_sweeps=100000):
    """Frozen-bound solve by cyclic coordinate descent on the gamma3 block.

    The smooth free nodes are eliminated with dense solves; each sweep
    soft-thresholds one gamma3 value at a time, and the sweeps stop once
    no value moves by ``tol``.
    """
    Kd = K.toarray()
    T = np.intersect1d(gamma3, free)
    S = np.setdiff1d(free, T)
    K_st = Kd[np.ix_(S, T)]
    X = np.linalg.solve(Kd[np.ix_(S, S)], np.column_stack([K_st, F[S]]))
    A = Kd[np.ix_(T, T)] - K_st.T @ X[:, :-1]
    b = F[T] - K_st.T @ X[:, -1]
    d = np.diag(A)
    t = np.zeros(len(T))
    for _ in range(max_sweeps):
        max_update = 0.0
        for i in range(len(T)):
            r = b[i] - A[i] @ t + d[i] * t[i]
            new = np.sign(r) * max(abs(r) - c[i], 0.0) / d[i]
            max_update = max(max_update, abs(new - t[i]))
            t[i] = new
        if max_update < tol:
            u = np.zeros(len(F))
            u[T] = t
            u[S] = X[:, -1] - X[:, :-1] @ t
            return u
    raise AssertionError("coordinate descent oracle did not converge")


def kkt_residual(K, F, free, gamma3, c, u):
    """Largest violation of the discrete friction law by u.

    Covers equilibrium on the smooth free nodes, u = 0 on gamma1, the
    stick bound |lambda_i| <= c_i and lambda_i = c_i sign(u_i) on slip
    nodes, with lambda = F - K u on the gamma3 nodes.
    """
    T = np.intersect1d(gamma3, free)
    S = np.setdiff1d(free, T)
    fixed = np.setdiff1d(np.arange(len(u)), free)
    r = F - K @ u
    lam, t = r[T], u[T]
    slip = t != 0.0
    return max(
        np.max(np.abs(r[S]), initial=0.0),
        np.max(np.abs(u[fixed]), initial=0.0),
        np.max(np.abs(lam) - c, initial=0.0),
        np.max(np.abs(lam[slip] - c[slip] * np.sign(t[slip])), initial=0.0),
    )


def control_square():
    """The 6x6 square of the control tests: mu = 1, f0 = 0.2, bound 0.05.

    Returns (mesh, K, solver, c, load) with load(traction) the load vector
    under a constant gamma2 traction.
    """
    mesh = square_mesh(6)
    K = fem.assemble_stiffness(mesh, 1.0)
    solver = qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
    c = 0.05 * mesh.gamma3_weights[solver.friction]
    return mesh, K, solver, c, lambda traction: fem.assemble_load(mesh, 0.2, traction)


class TestTresca:
    def test_zero_bound_matches_direct_solve(self):
        mesh = interval_mesh(32)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 2.0)
        solver = qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        u, _ = solver.solve(F, np.zeros(1))
        ref = linear_solve(mesh, 1.0, 2.0)
        assert np.max(np.abs(u - ref)) < 1e-10

    def test_slip_solution_exact(self):
        # mu = 1, f0 = 3, G = 1: u = -1.5 x^2 + 2 x, end traction -1
        mesh = interval_mesh(64)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 3.0)
        solver = qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        u, _ = solver.solve(F, np.array([1.0]))
        x = mesh.nodes
        assert np.max(np.abs(u - (-1.5 * x**2 + 2.0 * x))) < 1e-10
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.constant(1.0))
        _, lam, _, _, _ = qvi.complementarity_report(prob, u)
        assert np.allclose(lam, [-1.0], atol=1e-9)

    def test_stick_when_bound_large(self):
        mesh = interval_mesh(32)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 1.0)
        solver = qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        u, _ = solver.solve(F, np.array([10.0]))
        assert u[-1] == 0.0

    def test_minimizer_beats_perturbations(self):
        mesh = square_mesh(5)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 1.0, 0.5)
        g3 = mesh.node_sets["gamma3"]
        w = mesh.gamma3_weights[g3]
        bound = 0.4 * w
        u, _ = qvi.TrescaSolver(K, mesh.free_nodes, g3).solve(F, bound)
        g = fem.FrictionBound.constant(0.4)
        e_star = friction_energy(mesh, K, F, g, u)
        rng = np.random.default_rng(RNG_SEED)
        for scale in (1e-3, 1e-1, 1.0):
            for _ in range(30):
                v = u + scale * zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
                assert friction_energy(mesh, K, F, g, v) >= e_star - 1e-12

    @pytest.mark.parametrize(
        "f2,G,stick",
        [(1.0, 0.3, False), (1.0, 1.5, True), (-3.0, 0.05, False), (-3.0, 1.0, True)],
    )
    def test_kkt_and_coordinate_descent_agreement(self, f2, G, stick):
        mesh = square_mesh(6)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 2.0, f2)
        g3 = mesh.node_sets["gamma3"]
        c = G * mesh.gamma3_weights[g3]
        u, iterations = qvi.TrescaSolver(K, mesh.free_nodes, g3).solve(F, c)
        assert type(iterations) is int and iterations >= 1
        assert np.any(u[g3] == 0.0) == stick
        assert kkt_residual(K, F, mesh.free_nodes, g3, c, u) <= 1e-10
        ref = cd_oracle(K, F, mesh.free_nodes, g3, c)
        assert np.max(np.abs(u - ref)) <= 1e-10

    def test_active_set_cap_raises(self):
        # the state under traction 0.6 slips forward on all twelve gamma3
        # nodes; under -0.6 every node slips backward, so one iteration from
        # that warm start cannot settle the sets
        _, _, solver, c, load = control_square()
        t0 = solver.solve(load(0.6), c)[0][solver.friction]
        with pytest.raises(qvi.SolverError, match="active-set"):
            solver.solve(load(-0.6), c, t0=t0, max_inner=1)

    @pytest.mark.parametrize(
        "warm,target",
        [
            (0.6, -0.6),  # every warm-start sign is wrong
            # met in the control sequence test: the warm start slips on all
            # twelve nodes, the answer sticks on six, and the step
            # sigma = 1/diag(A) cycles between active sets
            (-0.3258955783927158, -0.19553735),
        ],
    )
    def test_wrong_sign_warm_start_converges(self, warm, target):
        mesh, K, solver, c, load = control_square()
        t0 = solver.solve(load(warm), c)[0][solver.friction]
        F = load(target)
        u, _ = solver.solve(F, c, t0=t0)
        cold, _ = solver.solve(F, c)
        assert np.max(np.abs(u - cold)) <= 1e-12
        g3 = mesh.node_sets["gamma3"]
        assert kkt_residual(K, F, mesh.free_nodes, g3, c, u) <= 1e-10
        assert np.max(np.abs(u - cd_oracle(K, F, mesh.free_nodes, g3, c))) <= 1e-10

    def test_repeated_sign_vector_switches_to_least_index_rule(self):
        # from this warm start the full active-set step returns to a sign
        # vector it has seen and would cycle until max_inner; the least-index
        # rule reaches the cold-start answer in a few iterations
        K = sp.csr_matrix([[4.0, -2.0, 0.0], [-2.0, 2.0, -2.0], [0.0, -2.0, 5.0]])
        solver = qvi.TrescaSolver(K, np.arange(3), np.arange(3))
        F, c = np.array([4.0, 0.0, -4.0]), np.ones(3)
        cold, cold_iterations = solver.solve(F, c)
        assert cold_iterations == 1
        assert np.max(np.abs(cold - [0.75, 0.0, -0.6])) <= 1e-14
        u, iterations = solver.solve(F, c, t0=[-1.0, -2.0, -3.0])
        assert iterations <= 20
        assert np.max(np.abs(u - cold)) <= 1e-14
        assert kkt_residual(K, F, np.arange(3), np.arange(3), c, u) <= 1e-12

    def test_rejects_nonpositive_diagonal(self):
        mesh = interval_mesh(4)
        K = sp.csr_matrix((5, 5))
        F = np.zeros(5)
        with pytest.raises(qvi.SolverError, match="diagonal"):
            qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"]).solve(F, np.zeros(1))

    def test_rejects_negative_bound(self):
        mesh = interval_mesh(4)
        K = fem.assemble_stiffness(mesh, 1.0)
        F = fem.assemble_load(mesh, 1.0)
        solver = qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"])
        with pytest.raises(qvi.SolverError, match="negative"):
            solver.solve(F, np.array([-1.0]))


def _values(n, lo, hi):
    return st.lists(
        st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n
    ).map(np.array)


@st.composite
def tresca_instances(draw):
    """Random rectangle, per-element mu in [0.2, 5], mixed-sign loads,
    bounds c >= 0 with zeros, and a random or absent warm start."""
    tags = draw(st.lists(st.sampled_from(fem.TAGS), min_size=4, max_size=4))
    assume(fem.GAMMA1 in tags and fem.GAMMA3 in tags)
    spec = fem.MeshSpec(
        2,
        (draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))),
        (draw(st.integers(1, 8)), draw(st.integers(1, 8))),
        dict(zip(fem.SIDES_2D, tags)),
    )
    mesh = fem.build_mesh(spec)
    m = len(mesh.elements)
    n2 = len(mesh.facets[fem.GAMMA2])
    K = fem.assemble_stiffness(mesh, draw(_values(m, 0.2, 5.0)))
    F = fem.assemble_load(
        mesh, draw(_values(m, -3.0, 3.0)), draw(_values(n2, -3.0, 3.0)) if n2 else None
    )
    T = mesh.node_sets[fem.GAMMA3]
    G = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=len(T), max_size=len(T)
        ).map(np.array)
    )
    t0 = draw(st.one_of(st.none(), _values(len(T), -2.0, 2.0)))
    return mesh, K, F, G * mesh.gamma3_weights[T], t0


class TestTrescaProperties:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(tresca_instances())
    def test_kkt_and_agreement_with_coordinate_descent(self, instance):
        mesh, K, F, c, t0 = instance
        g3 = mesh.node_sets[fem.GAMMA3]
        u, _ = qvi.TrescaSolver(K, mesh.free_nodes, g3).solve(F, c, t0=t0)
        assert kkt_residual(K, F, mesh.free_nodes, g3, c, u) <= 1e-10
        assert np.max(np.abs(u - cd_oracle(K, F, mesh.free_nodes, g3, c))) <= 1e-10


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_outer", 0),
            ("max_outer", -3),
            ("max_inner", 0),
            ("outer_tol", 0.0),
            ("outer_tol", -1e-10),
            ("inner_tol", 0.0),
            ("inner_tol", float("nan")),
        ],
    )
    def test_rejects_bad_value_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            qvi.SolverConfig(**{field: value})

    def test_smallest_caps_accepted(self):
        cfg = qvi.SolverConfig(max_outer=1, max_inner=1, outer_tol=1e-300)
        assert cfg.max_outer == 1 and cfg.max_inner == 1


class TestFixedPoint:
    def test_benchmark_cases_nodal_exact(self):
        for mu, f0, g in [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, -3.0, 0.5), (1.0, 2.0, 1.0)]:
            prob = benchmark_problem(mu, f0, g, 128)
            u, rep = qvi.solve_qvi(prob)
            assert rep.converged
            x = prob.mesh.nodes
            assert np.max(np.abs(u - analytic_1d(mu, f0, g, x))) < 1e-9

    def test_slip_dependent_fixed_point(self):
        # g(r) = 0.5 + 0.5|r|, f0 = 3: end value 2/3, bound 5/6 at the fixed point
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.5, 0.5))
        u, rep = qvi.solve_qvi(prob)
        assert abs(u[-1] - 2.0 / 3.0) < 1e-9
        x = mesh.nodes
        ref = -1.5 * x**2 + (3.0 - 5.0 / 6.0) * x
        assert np.max(np.abs(u - ref)) < 1e-9

    @pytest.mark.parametrize(
        "spec",
        [
            fem.MeshSpec(1, (1.0,), (16,), {"left": "gamma1", "right": "gamma2"}),
            fem.MeshSpec(
                2, (1.0, 1.0), (4, 3),
                {"left": "gamma1", "right": "gamma2", "bottom": "gamma2", "top": "gamma2"},
            ),
        ],
    )
    def test_no_free_gamma3_node_needs_no_inner_iteration(self, spec):
        mesh = fem.build_mesh(spec)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.1))
        u, rep = qvi.solve_qvi(prob)
        assert rep.converged and rep.outer_iterations == 2
        assert rep.inner_sweeps == [0, 0]
        assert np.allclose(u, linear_solve(mesh, 1.0, 1.0, 0.5), rtol=0, atol=1e-12)

    def test_zero_data_single_iteration(self):
        mesh = interval_mesh(16)
        prob = qvi.ProblemData(mesh, 1.0, 0.0, 0.0, fem.FrictionBound.constant(0.0))
        u, rep = qvi.solve_qvi(prob)
        assert np.allclose(u, 0.0)
        assert rep.outer_iterations == 1

    def test_slip_independent_bound_two_iterations(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 32)
        u, rep = qvi.solve_qvi(prob)
        assert rep.outer_iterations == 2

    def test_observed_contraction_below_margin(self):
        # L_g = 0.9 on the interval: k just above 0.96
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.25, 0.9))
        u, rep = qvi.solve_qvi(prob, qvi.SolverConfig(max_outer=400))
        assert rep.k < 1.0
        assert len(rep.ratios) > 10
        assert max(rep.ratios) <= rep.k + 0.05

    def test_iteration_count_follows_contraction(self):
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.5, 0.5))
        u, rep = qvi.solve_qvi(prob)
        bound = int(np.ceil(np.log(1e-10) / np.log(rep.k))) + 5
        assert rep.outer_iterations <= bound

    def test_smallness_violation_requires_override(self):
        mesh = interval_mesh(32)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.0, fem.FrictionBound.affine(0.1, 1.0))
        with pytest.raises(qvi.SolverError, match="contraction factor"):
            qvi.solve_qvi(prob)

    def test_override_still_converges_when_map_contracts(self):
        # k >= 1 is only an upper bound; the interval map still contracts at 0.95
        mesh = interval_mesh(32)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.1, 0.95))
        with pytest.warns(UserWarning, match="non-contractive"):
            u, rep = qvi.solve_qvi(
                prob, qvi.SolverConfig(max_outer=1000, allow_non_contractive=True)
            )
        assert rep.converged and not rep.contraction_ok
        assert rep.error_bound is None

    def test_error_bound_covers_distance_to_tight_solve(self):
        # L_g = 0.5 on the interval: k about 0.54
        mesh = interval_mesh(64)
        prob = qvi.ProblemData(mesh, 1.0, 3.0, 0.0, fem.FrictionBound.affine(0.5, 0.5))
        u, rep = qvi.solve_qvi(prob, qvi.SolverConfig(outer_tol=1e-6))
        ref, _ = qvi.solve_qvi(prob, qvi.SolverConfig(outer_tol=1e-12))
        assert 0.5 < rep.k < 0.6 and rep.contraction_ok
        assert rep.error_bound == rep.k / (1.0 - rep.k) * rep.increments[-1]
        assert 0.0 < fem.v_norm(mesh, u - ref) <= rep.error_bound

    def test_outer_cap_raises(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 16)
        with pytest.raises(qvi.SolverError, match="outer fixed point"):
            qvi.solve_qvi(prob, qvi.SolverConfig(max_outer=1))

    def test_negative_bound_function_rejected(self):
        mesh = interval_mesh(16)
        bad = fem.FrictionBound(lambda x, r: -np.ones_like(r), 0.0)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.0, bad)
        with pytest.raises(qvi.SolverError, match="negative"):
            qvi.solve_qvi(prob)

    def test_deterministic(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u1, _ = qvi.solve_qvi(prob)
        u2, _ = qvi.solve_qvi(prob)
        assert np.array_equal(u1, u2)

    def test_square_with_slip_dependent_bound(self):
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, rep = qvi.solve_qvi(prob)
        assert rep.converged and rep.contraction_ok
        assert in_space(mesh, u)
        theta = qvi.TykhonovIndex(0.0, 1.0, 0.5, prob.g)
        assert qvi.membership_violation(mesh, 1.0, u, theta, seed=5) <= 1e-8


def per_step_tresca(solver, F, c, t0, inner_tol, max_inner, slip_sets=None):
    """The frozen-bound solve that reduces F on every call and solves the
    slip block afresh with ``np.linalg.solve`` in every active-set
    iteration.  Appends each nonempty slip set to ``slip_sets``."""
    S, T = solver.smooth, solver.friction
    W = solver._solve_smooth(F[S]) if len(S) else np.zeros(0)
    Ft = F[T] - solver.K_st.T @ W if len(S) else F[T].copy()

    def lift(t):
        u = np.zeros(solver.n_nodes)
        if len(S):
            u[S] = W - (solver.X @ t if len(t) else 0.0)
        u[T] = t
        return u

    if len(T) == 0:
        return lift(np.zeros(0)), 0
    A, sigma = solver.A, solver._sigma
    tol = inner_tol * (1.0 + np.abs(Ft).max())
    t = np.array(t0, dtype=float)
    lam = Ft - A @ t
    for iteration in range(1, max_inner + 1):
        z = t + sigma * lam
        s = np.sign(z) * (np.abs(z) > sigma * c)
        J = np.flatnonzero(s)
        if slip_sets is not None and len(J):
            slip_sets.append(J.tobytes())
        t = np.zeros(len(T))
        t[J] = np.linalg.solve(A[J][:, J], Ft[J] - s[J] * c[J])
        lam = Ft - A @ t
        lam[J] = s[J] * c[J]
        stick = s == 0.0
        if (np.abs(lam[stick]) <= c[stick] + tol).all() and (s[J] * t[J] >= -tol).all():
            return lift(t), iteration
    raise AssertionError("per-step oracle missed the friction law")


def per_step_fixed_point(mesh, g, solver, F, cfg, eta0=None, slip_sets=None):
    """The bound-update loop with one full frozen-bound solve per outer
    step.  Returns (u, increments, ratios, inner_sweeps)."""
    T = solver.friction
    w = mesh.gamma3_weights[T]
    eta = np.zeros(mesh.n_nodes) if eta0 is None else np.array(eta0, dtype=float)
    increments, ratios, sweeps = [], [], []
    for _ in range(cfg.max_outer):
        c = w * np.maximum(g(mesh.nodes[T], np.abs(eta[T])), 0.0)
        u, its = per_step_tresca(
            solver, F, c, eta[T], cfg.inner_tol, cfg.max_inner, slip_sets
        )
        inc = fem.v_norm(mesh, u - eta)
        if increments and increments[-1] > 0.0:
            ratios.append(inc / increments[-1])
        increments.append(inc)
        sweeps.append(its)
        eta = u
        if inc < cfg.outer_tol:
            return eta, increments, ratios, sweeps
    raise AssertionError("per-step oracle missed the outer tolerance")


def set_changes(slip_sets):
    """Number of entries that differ from the one before (the first counts)."""
    return sum(a != b for a, b in zip([None] + slip_sets[:-1], slip_sets))


@st.composite
def fixed_point_instances(draw):
    """Random rectangle up to 8x8, per-element mu in [0.2, 5], mixed-sign
    loads, an affine bound a + b|r| with b > 0 inside the contraction
    limit, and a random or absent warm start."""
    tags = draw(st.lists(st.sampled_from(fem.TAGS), min_size=4, max_size=4))
    assume(fem.GAMMA1 in tags and fem.GAMMA3 in tags)
    spec = fem.MeshSpec(
        2,
        (draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))),
        (draw(st.integers(1, 8)), draw(st.integers(1, 8))),
        dict(zip(fem.SIDES_2D, tags)),
    )
    mesh = fem.build_mesh(spec)
    # the constants need a free node (a mesh clamped everywhere has none)
    assume(len(mesh.free_nodes))
    m = len(mesh.elements)
    n2 = len(mesh.facets[fem.GAMMA2])
    mu = draw(_values(m, 0.2, 5.0))
    F = fem.assemble_load(
        mesh, draw(_values(m, -3.0, 3.0)), draw(_values(n2, -3.0, 3.0)) if n2 else None
    )
    c0, c3 = constants.space_constants(mesh)
    b = draw(st.floats(0.05, 0.9)) * mu.min() / (c0**2 * c3**2)
    g = fem.FrictionBound.affine(draw(st.floats(0.0, 1.0)), b)
    eta0 = draw(st.one_of(st.none(), _values(mesh.n_nodes, -2.0, 2.0)))
    return mesh, fem.assemble_stiffness(mesh, mu), F, g, float(mu.min()), eta0


class TestReducedFixedPoint:
    """The fixed point reduces its load once and keeps the slip-block LU;
    its results are bitwise those of the per-step loop."""

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(fixed_point_instances())
    def test_bitwise_equal_to_per_step_loop(self, instance):
        mesh, K, F, g, mu_star, eta0 = instance
        g3 = mesh.node_sets[fem.GAMMA3]
        cfg = qvi.SolverConfig()
        u, rep = qvi.fixed_point(
            mesh, g, qvi.TrescaSolver(K, mesh.free_nodes, g3), F, mu_star, cfg, eta0
        )
        ref = per_step_fixed_point(
            mesh, g, qvi.TrescaSolver(K, mesh.free_nodes, g3), F, cfg, eta0
        )
        assert np.array_equal(u, ref[0])
        assert rep.increments == ref[1]
        assert rep.ratios == ref[2]
        assert rep.inner_sweeps == ref[3]

    @staticmethod
    def count_work(monkeypatch, solver):
        """Counters of smooth-block solves on ``solver`` and of slip-block
        LU factorizations."""
        counts = {"smooth": 0, "slip": 0}
        solve_smooth, dgetrf = solver._solve_smooth, qvi.dgetrf

        def counted_smooth(b):
            counts["smooth"] += 1
            return solve_smooth(b)

        def counted_dgetrf(a):
            counts["slip"] += 1
            return dgetrf(a)

        solver._solve_smooth = counted_smooth
        monkeypatch.setattr(qvi, "dgetrf", counted_dgetrf)
        return counts

    @pytest.mark.parametrize("b, min_outer", [(0.0, 2), (0.2, 6), (0.6, 20)])
    def test_one_smooth_solve_and_lu_per_slip_set(self, monkeypatch, b, min_outer):
        mesh, K, solver, _, load = control_square()
        g = fem.FrictionBound.affine(0.05, b)
        F = load(0.6)
        cfg = qvi.SolverConfig()
        slip_sets = []
        ref = per_step_fixed_point(
            mesh, g, qvi.TrescaSolver(K, mesh.free_nodes, mesh.node_sets["gamma3"]),
            F, cfg, slip_sets=slip_sets,
        )
        counts = self.count_work(monkeypatch, solver)
        u, rep = qvi.fixed_point(mesh, g, solver, F, 1.0, cfg)
        assert np.array_equal(u, ref[0])
        assert rep.outer_iterations >= min_outer
        assert counts["smooth"] == 1
        # the slip set repeats, so a factorization per iteration would show
        assert len(slip_sets) > set_changes(slip_sets) >= 1
        assert counts["slip"] <= set_changes(slip_sets)

    def test_lu_kept_across_state_evaluations(self, monkeypatch):
        mesh = square_mesh(6)
        problem = qvi.ProblemData(mesh, 1.0, 0.2, None, fem.FrictionBound.affine(0.05, 0.2))
        patches = control.ControlPatches(mesh, 2)
        state = control.StateSolver(problem, patches)
        weights = control.CostWeights(1.0, 1e-3, 0.0)
        cfg = qvi.SolverConfig()
        oracle_solver = control.StateSolver(problem, patches).discrete.tresca
        coeffs = [np.array([0.6, 0.4]), np.array([0.61, 0.39])]
        slip_sets, eta = [], None
        for x in coeffs:
            F = state.F0 + state.B @ patches.coefficients(x)
            eta = per_step_fixed_point(
                mesh, problem.g, oracle_solver, F, cfg, eta, slip_sets
            )[0]
        counts = self.count_work(monkeypatch, state.discrete.tresca)
        u = None
        for x in coeffs:
            _, u = state.evaluate(x, weights, cfg, eta0=u)
        assert np.array_equal(u, eta)
        assert counts["smooth"] == 2
        assert len(slip_sets) > set_changes(slip_sets) >= 1
        assert counts["slip"] <= set_changes(slip_sets)


class TestBadData:
    def test_nan_bound_fails_fast(self):
        mesh = square_mesh(4)
        bad = fem.FrictionBound(lambda x, r: np.full_like(r, np.nan), 0.0)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, bad)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.solve_qvi(prob, qvi.SolverConfig(max_inner=5))

    def test_infinite_bound_rejected(self):
        mesh = interval_mesh(16)
        bad = fem.FrictionBound(lambda x, r: np.full_like(r, np.inf), 0.0)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.0, bad)
        with pytest.raises(qvi.SolverError, match="friction bound .*non-finite"):
            qvi.solve_qvi(prob)

    @pytest.mark.parametrize("where", ["everywhere", "interior", "gamma3"])
    def test_nan_load_fails_fast(self, where):
        mesh, _, solver, c, load = control_square()
        F = load(0.6)
        node = {"everywhere": slice(None), "interior": 24, "gamma3": solver.friction[0]}
        F[node[where]] = np.nan
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(qvi.SolverError, match="load .*non-finite"):
            qvi.fixed_point(mesh, g, solver, F, 1.0, qvi.SolverConfig(max_inner=5))
        with pytest.raises(qvi.SolverError, match="load .*non-finite"):
            solver.solve(F, c, max_inner=5)

    def test_nan_coefficient_rejected(self):
        _, _, solver, c, load = control_square()
        c[2] = np.nan
        with pytest.raises(qvi.SolverError, match="NaN friction bound"):
            solver.solve(load(0.6), c, max_inner=5)

    def test_wrong_length_eta0(self):
        mesh, _, solver, _, load = control_square()
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(ValueError, match=f"eta0 must have {mesh.n_nodes} entries"):
            qvi.fixed_point(mesh, g, solver, load(0.6), 1.0, eta0=np.zeros(mesh.n_nodes - 1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["smooth", "gamma3", "gamma1"])
    def test_non_finite_eta0_rejected(self, where, value):
        # unchecked, a NaN off gamma3 gives a "converged" run with a NaN first
        # increment, and one on gamma3 an error that blames the bound or the
        # inner solve
        mesh, _, solver, _, load = control_square()
        node = {
            "smooth": solver.smooth[0],
            "gamma3": solver.friction[0],
            "gamma1": mesh.node_sets["gamma1"][0],
        }[where]
        eta0 = np.zeros(mesh.n_nodes)
        eta0[node] = value
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(ValueError, match=f"eta0 must be finite, got .* at node {node}"):
            qvi.fixed_point(mesh, g, solver, load(0.6), 1.0, eta0=eta0)
        problem = qvi.ProblemData(mesh, 1.0, 0.2, None, g)
        state = control.StateSolver(problem, control.ControlPatches(mesh, 1))
        with pytest.raises(ValueError, match=f"eta0 must be finite, got .* at node {node}"):
            state.solve(np.array([0.6]), eta0=eta0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_t0_rejected(self, value):
        # unchecked, a NaN sign repeats as a cycle with no violator to change
        _, _, solver, c, load = control_square()
        t0 = np.zeros(len(c))
        t0[3] = value
        node = solver.friction[3]
        with pytest.raises(ValueError, match=f"t0 must be finite, got .* at node {node}"):
            solver.solve(load(0.6), c, t0=t0)

    def test_wrong_length_load_in_fixed_point(self):
        mesh, _, solver, _, load = control_square()
        g = fem.FrictionBound.constant(0.05)
        with pytest.raises(ValueError, match=f"F must have {mesh.n_nodes} entries"):
            qvi.fixed_point(mesh, g, solver, load(0.6)[:-1], 1.0)

    @pytest.mark.parametrize(
        "name, shorten",
        [("F", lambda F, c, t: (F[:-1], c, t)),
         ("c", lambda F, c, t: (F, c[1:], t)),
         ("t0", lambda F, c, t: (F, c, t[:3]))],
    )
    def test_wrong_length_solve_arguments(self, name, shorten):
        _, _, solver, c, load = control_square()
        F, c, t0 = shorten(load(0.6), c, np.zeros(len(c)))
        with pytest.raises(ValueError, match=f"{name} must have"):
            solver.solve(F, c, t0=t0)

    def test_singular_slip_block_named(self):
        # positive diagonal, singular: both nodes slip and A_JJ has no LU
        K = sp.csr_matrix(np.ones((2, 2)))
        solver = qvi.TrescaSolver(K, [0, 1], [0, 1])
        with pytest.raises(qvi.SolverError, match="slip block"):
            solver.solve(np.ones(2), np.zeros(2))


class TestAPrioriBound:
    def test_solution_norm_bounded_by_dual_load(self):
        for mu, f0, g in [(1.0, 3.0, 1.0), (2.0, -3.0, 0.5)]:
            prob = benchmark_problem(mu, f0, g, 64)
            u, rep = qvi.solve_qvi(prob)
            F = fem.assemble_load(prob.mesh, prob.f0, prob.f2)
            lhs = prob.resolved_mu_star() / rep.c0**2 * fem.v_norm(prob.mesh, u)
            assert lhs <= dual_norm(prob.mesh, F) * (1 + 1e-9)


class TestFourPointEstimate:
    def test_bound_difference_estimate(self):
        mesh = square_mesh(5)
        g = fem.FrictionBound.affine(0.3, 0.6)
        c3 = constants.trace_constant(mesh, seed=0)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            e1, e2, v1, v2 = (
                zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes)) for _ in range(4)
            )
            lhs = (
                fem.eval_j(mesh, g, e1, v2)
                - fem.eval_j(mesh, g, e1, v1)
                + fem.eval_j(mesh, g, e2, v1)
                - fem.eval_j(mesh, g, e2, v2)
            )
            rhs = (
                g.lipschitz
                * c3**2
                * fem.v_norm(mesh, e1 - e2)
                * fem.v_norm(mesh, v1 - v2)
            )
            assert lhs <= rhs * (1 + 1e-10) + 1e-12


def membership_oracle(mesh, mu, u, theta, *, directions=None, n_random=100, seed=0,
                      basis_scale=1.0):
    """The membership certificate one test field at a time: a loop over
    the free nodes and both signs, then over the seeded random fields."""
    K = fem.assemble_stiffness(mesh, mu)
    F = fem.assemble_load(mesh, theta.f0, theta.f2)
    res = F - K @ u
    ju_u = fem.eval_j(mesh, theta.g, u, u)
    norm_u = fem.v_norm(mesh, u)
    eps = theta.eps
    gram_diag = fem.gram_matrix(mesh).diagonal()
    g3 = mesh.node_sets[fem.GAMMA3]
    g3_pos = {int(i): p for p, i in enumerate(g3)}
    w_g3 = mesh.gamma3_weights[g3]
    G_u = theta.g(mesh.nodes[g3], np.abs(u[g3])) if len(g3) else np.zeros(0)

    def residual(v):
        d = v - u
        jv = fem.eval_j(mesh, theta.g, u, v)
        return float(res @ d) - jv + ju_u - eps * norm_u * fem.v_norm(mesh, d)

    worst = 0.0
    if directions is not None:
        for v in directions:
            worst = max(worst, residual(np.asarray(v, dtype=float)))
        return worst
    s = basis_scale
    for i in mesh.free_nodes:
        base = s * np.sqrt(max(gram_diag[i], 0.0)) * eps * norm_u
        for sign in (1.0, -1.0):
            val = sign * s * res[i] - base
            p = g3_pos.get(int(i))
            if p is not None:
                val -= w_g3[p] * G_u[p] * (abs(u[i] + sign * s) - abs(u[i]))
            worst = max(worst, val)
    worst = max(worst, float(-res @ u) + ju_u - eps * norm_u**2)
    worst = max(worst, float(res @ u) - ju_u - eps * norm_u**2)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = zero_on_gamma1(mesh, rng.standard_normal(mesh.n_nodes))
        nv = fem.v_norm(mesh, v)
        if nv > 0.0:
            v *= (1.0 + norm_u) / nv
        worst = max(worst, residual(v))
    return worst


def certificate_case(name):
    """(mesh, mu, u, theta, keyword arguments) of a named certificate case."""
    if name.startswith("1d"):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        eps, kwargs = 0.0, {}
        if name == "1d-eps-scaled":
            eps, kwargs = 1e-3, {"basis_scale": 0.5}
        elif name == "1d-perturbed":
            u = u.copy()
            u[32] += 0.3
        return prob.mesh, prob.mu, u, qvi.TykhonovIndex(eps, prob.f0, prob.f2, prob.g), kwargs
    partition = {"left": "gamma1", "right": "gamma2", "bottom": "gamma3", "top": "gamma3"}
    if name == "2d-no-gamma3":
        partition.update(bottom="gamma2", top="gamma2")
    mesh = fem.build_mesh(fem.MeshSpec(2, (1.5, 0.7), (6, 5), partition))
    mu = np.random.default_rng(RNG_SEED).uniform(0.5, 2.0, len(mesh.elements))
    prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.1))
    u, _ = qvi.solve_qvi(prob)
    theta = qvi.TykhonovIndex(1e-4, 1.0, 0.5, prob.g)
    if name == "2d-solution":
        return mesh, mu, u, theta, {}
    # an oscillating error; the small basis scale leaves the largest
    # residual to the random fields (see test_each_random_block_counts)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = u + zero_on_gamma1(mesh, 0.05 * np.sin(9.0 * x) * np.cos(7.0 * y))
    return mesh, mu, u, theta, {"basis_scale": 1e-3, "seed": 253}


CERTIFICATE_CASES = ("1d-solution", "1d-eps-scaled", "1d-perturbed", "2d-solution",
                     "2d-perturbed", "2d-no-gamma3")


class TestMembershipOracle:
    @pytest.mark.parametrize("n_random", [0, 1, 17, 100])
    @pytest.mark.parametrize("name", CERTIFICATE_CASES)
    def test_agrees_with_loop_oracle(self, name, n_random):
        mesh, mu, u, theta, kwargs = certificate_case(name)
        got = qvi.membership_violation(mesh, mu, u, theta, n_random=n_random, **kwargs)
        expected = membership_oracle(mesh, mu, u, theta, n_random=n_random, **kwargs)
        assert type(got) is float
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))
        if name.endswith("perturbed"):
            assert got > 1e-3

    def test_each_random_block_counts(self):
        # the worst test field of this case is the first random field, then
        # the seventeenth (the first of the second block), then a later one
        mesh, mu, u, theta, kwargs = certificate_case("2d-perturbed")
        values = [
            qvi.membership_violation(mesh, mu, u, theta, n_random=n, **kwargs)
            for n in (0, 1, 16, 17, 100)
        ]
        assert values[0] < values[1] and values[2] < values[3] < values[4]

    @pytest.mark.parametrize("name", CERTIFICATE_CASES)
    def test_directions_agree_with_loop_oracle(self, name):
        mesh, mu, u, theta, _ = certificate_case(name)
        rng = np.random.default_rng(RNG_SEED)
        dirs = [np.zeros(mesh.n_nodes), 2 * u, 0.5 * u, u + rng.standard_normal(mesh.n_nodes)]
        got = qvi.membership_violation(mesh, mu, u, theta, directions=dirs)
        expected = membership_oracle(mesh, mu, u, theta, directions=dirs)
        assert type(got) is float
        assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))


class TestMembership:
    def test_solution_certifies(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        v = qvi.membership_violation(prob.mesh, prob.mu, u, theta, seed=0)
        assert v <= 1e-8

    def test_perturbed_solution_fails(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        bad = u.copy()
        bad[32] += 0.3
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, bad, theta, seed=0) > 1e-3

    def test_relaxation_absorbs_load_error(self):
        # u solves the unperturbed problem; with the load shifted by delta
        # it only joins the approximating set once eps covers the gap
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        delta = 0.01
        tight = qvi.TykhonovIndex(0.0, prob.f0 + delta, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, u, tight, seed=0) > 1e-8
        F = fem.assemble_load(prob.mesh, prob.f0)
        F_shift = fem.assemble_load(prob.mesh, prob.f0 + delta)
        gap = dual_norm(prob.mesh, F_shift - F) / fem.v_norm(prob.mesh, u)
        relaxed = qvi.TykhonovIndex(gap * 1.0001, prob.f0 + delta, prob.f2, prob.g)
        assert qvi.membership_violation(prob.mesh, prob.mu, u, relaxed, seed=0) <= 1e-8

    def test_explicit_directions(self):
        prob = benchmark_problem(1.0, 1.0, 1.0, 16)
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        dirs = [np.zeros(prob.mesh.n_nodes), 2 * u, 0.5 * u]
        assert qvi.membership_violation(prob.mesh, prob.mu, u, theta, directions=dirs) <= 1e-12

    def test_deterministic(self):
        prob = benchmark_problem(1.0, 3.0, 1.0, 32)
        u, _ = qvi.solve_qvi(prob)
        theta = qvi.TykhonovIndex(1e-3, prob.f0, prob.f2, prob.g)
        a = qvi.membership_violation(prob.mesh, prob.mu, u, theta, seed=9)
        b = qvi.membership_violation(prob.mesh, prob.mu, u, theta, seed=9)
        assert a == b


class TestComplementarity:
    @pytest.mark.parametrize(
        "mu,f0,g", [(1.0, 1.0, 1.0), (1.0, 3.0, 1.0), (2.0, -3.0, 0.5), (1.0, 2.0, 1.0)]
    )
    def test_friction_law_residuals(self, mu, f0, g):
        prob = benchmark_problem(mu, f0, g, 128)
        u, _ = qvi.solve_qvi(prob)
        idx, lam, G, stick_slack, comp = qvi.complementarity_report(prob, u)
        assert np.all(stick_slack <= 1e-8)
        assert np.all(comp <= 1e-8)

    def test_slip_traction_sign(self):
        # positive slip drags the traction to the negative bound
        prob = benchmark_problem(1.0, 3.0, 1.0, 64)
        u, _ = qvi.solve_qvi(prob)
        idx, lam, G, _, _ = qvi.complementarity_report(prob, u)
        assert u[idx][0] > 0.0
        assert np.isclose(lam[0], -G[0], atol=1e-9)

    def test_square_case(self):
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, 1.0, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, _ = qvi.solve_qvi(prob)
        idx, lam, G, stick_slack, comp = qvi.complementarity_report(prob, u)
        assert np.all(stick_slack <= 1e-8)
        assert np.all(comp <= 1e-8)


class TestCertifiedSolveAssembly:
    """solve_qvi, complementarity_report and membership_violation of one
    problem share the mesh's cached stiffness matrix."""

    @pytest.mark.parametrize("mu", [1.0, 0.8])
    def test_one_stiffness_assembly(self, mu, monkeypatch):
        assembled = []
        assemble = fem.assemble_stiffness

        def counting(*args, **kwargs):
            assembled.append(args[1])
            return assemble(*args, **kwargs)

        monkeypatch.setattr(fem, "assemble_stiffness", counting)
        mesh = square_mesh(6)
        prob = qvi.ProblemData(mesh, mu, 1.0, 0.5, fem.FrictionBound.affine(0.2, 0.2))
        u, _ = qvi.solve_qvi(prob)
        kkt = qvi.complementarity_report(prob, u)
        theta = qvi.TykhonovIndex(0.0, prob.f0, prob.f2, prob.g)
        violation = qvi.membership_violation(mesh, mu, u, theta, seed=3)
        assert assembled == [mu]
        # the same values as a certificate handed a freshly assembled K
        K = assemble(mesh, mu)
        fresh = qvi.membership_violation(mesh, mu, u, theta, seed=3, stiffness=K)
        assert violation == fresh <= 1e-8
        assert np.max(kkt[3]) <= 1e-8
